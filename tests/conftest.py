"""Shared fixtures and configuration for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from hypothesis import HealthCheck, settings  # noqa: E402

# Keep the property-based tests fast and deterministic in CI.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


def pytest_sessionfinish(session, exitstatus):
    """Zero-interpreted-fallback gate for compiled backends.

    With ``REPRO_ASSERT_COMPILED_STEPS=<backend name>`` set (the CI
    numba matrix job exports ``numba``), the session fails if the named
    backend ever took the interpreted base ``step_into*`` path — a
    separate ``refresh_ghosts`` pass instead of its own fused kernel.
    Since the kernel compiler handles every layout, any nonzero count
    means a silent fallback regression.
    """
    name = os.environ.get("REPRO_ASSERT_COMPILED_STEPS")
    if not name or exitstatus != 0:
        return
    from repro.backends.base import interpreted_step_counts

    count = interpreted_step_counts().get(name, 0)
    if count:
        session.exitstatus = 1
        print(
            f"\nREPRO_ASSERT_COMPILED_STEPS: backend {name!r} took the "
            f"interpreted step path {count} time(s); expected 0",
            file=sys.stderr,
        )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test data."""
    return np.random.default_rng(123456789)


@pytest.fixture
def small_grid_2d(rng):
    """A small float32 2D diffusion grid with clamp boundaries."""
    from repro.stencil.boundary import BoundaryCondition
    from repro.stencil.grid import Grid2D
    from repro.stencil.kernels import five_point_diffusion

    u0 = (rng.random((20, 16)) * 100.0).astype(np.float32)
    return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())


@pytest.fixture
def small_grid_3d(rng):
    """A small float32 3D diffusion grid (with constant term) and clamp BCs."""
    from repro.stencil.boundary import BoundaryCondition
    from repro.stencil.grid import Grid3D
    from repro.stencil.kernels import seven_point_diffusion_3d

    u0 = (rng.random((12, 10, 4)) * 50.0 + 300.0).astype(np.float32)
    constant = (rng.random((12, 10, 4)) * 0.05).astype(np.float32)
    return Grid3D(
        u0, seven_point_diffusion_3d(0.1), BoundaryCondition.clamp(), constant=constant
    )


@pytest.fixture
def hotspot_small():
    """A tiny HotSpot3D instance for integration tests."""
    from repro.apps.hotspot3d import HotSpot3D, HotSpot3DConfig

    return HotSpot3D(HotSpot3DConfig(nx=16, ny=16, nz=4, seed=7))


def all_boundary_conditions():
    """Every boundary-condition kind exercised by the parametrised tests."""
    from repro.stencil.boundary import BoundaryCondition

    return [
        BoundaryCondition.clamp(),
        BoundaryCondition.periodic(),
        BoundaryCondition.zero(),
        BoundaryCondition.constant(3.25),
    ]


def stencil_library_2d():
    """Representative 2D stencils: symmetric, asymmetric, wide."""
    from repro.stencil import kernels

    return [
        kernels.jacobi4(),
        kernels.five_point_diffusion(0.2),
        kernels.nine_point_smoothing(),
        kernels.asymmetric_advection_2d(0.3, 0.15),
    ]


def stencil_library_3d():
    """Representative 3D stencils."""
    from repro.stencil import kernels

    return [
        kernels.seven_point_diffusion_3d(0.1),
        kernels.twenty_seven_point_3d(),
        kernels.asymmetric_advection_3d(),
    ]
