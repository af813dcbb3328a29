"""Shared fixtures and configuration for the test suite."""

from __future__ import annotations

import contextlib
import os
import sys
from unittest import mock

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

from repro.backends import Backend  # noqa: E402
from repro.stencil.reference import reference_sweep_padded  # noqa: E402


@contextlib.contextmanager
def on_backend(instance):
    """Run the enclosed code with ``instance`` (a spy, say) as the one
    backend: every layer calls ``get_backend()`` where it steps or
    reduces, so it reaches them all until the block ends."""
    import repro.backends

    with mock.patch.object(repro.backends, "_BACKEND", instance):
        yield instance


@pytest.fixture
def use_backend():
    """``use_backend(spy)`` swaps ``spy`` in for the one backend until
    the test ends (:func:`on_backend`).  Returns ``spy``."""
    with contextlib.ExitStack() as stack:
        yield lambda backend: stack.enter_context(on_backend(backend))


#: The two paths of the ``fused`` backend: compiled where ``cc`` exists,
#: and ``fused-interpreted``, its NumPy code (what a machine without
#: ``cc`` runs), forced by marking the native library unavailable.
COMPUTE_PATHS = ("fused", "fused-interpreted")

#: The compute paths plus ``base``: the routes of the ``Backend`` base
#: class alone, run by a :class:`BaseRoutes` instance standing in for
#: the backend.
CONTRACT_PATHS = COMPUTE_PATHS + ("base",)


class BaseRoutes(Backend):
    """Only ``sweep_padded``, the reference sweep: the rest is ``Backend``'s.

    ``FusedBackend`` reaches the base class's refresh-then-sweep step
    and plain-reduction checksum only for some views (no compiled
    sweep, a 2D tile), and never its copy-into-destination
    ``sweep_into``; on this backend every call takes them, so the
    contract tests hold those routes to the same bits on every case.
    """

    def sweep_padded(self, padded, spec, radius, interior_shape,
                     constant=None, out=None):
        interior_shape, radius = self._normalize_sweep_args(
            padded, radius, interior_shape, constant, out
        )
        new = reference_sweep_padded(
            padded, spec, radius, interior_shape, constant=constant
        )
        if out is None:
            return new
        out[...] = new
        return out


@contextlib.contextmanager
def on_path(name):
    """Run the enclosed code on path ``name`` of CONTRACT_PATHS.

    ``base`` swaps in a :class:`BaseRoutes` instance (:func:`on_backend`).
    """
    from repro.backends import native

    if name == "fused-interpreted":
        with mock.patch.object(native, "_state", "forced unavailable by a test"):
            yield
    elif name == "base":
        with on_backend(BaseRoutes()):
            yield
    else:
        yield


@pytest.fixture(params=CONTRACT_PATHS)
def backend(request):
    """The backend, on each path of CONTRACT_PATHS in turn."""
    from repro.backends import get_backend

    with on_path(request.param):
        yield get_backend()


def step_plan(src, dst, spec, radius, shape, boundary=None, constant=None,
              refresh_axes=None):
    """The :class:`~repro.backends.StepPlan` of the pair ``(src, dst)``.

    Every step and sweep of a pair takes it.  A pair with one more axis
    than ``shape`` is a batch of runs along that trailing axis, planned
    with :func:`~repro.backends.batch_arguments`, as a stacked campaign
    batch plans its pair.  ``boundary`` defaults to clamp, which a bare
    ``sweep_into`` never reads.
    """
    from repro.backends import StepPlan, batch_arguments
    from repro.stencil.boundary import BoundaryCondition

    if boundary is None:
        boundary = BoundaryCondition.clamp()
    if src.ndim == len(shape) + 1:
        args = batch_arguments(
            spec, radius, shape, boundary, constant, src.shape[-1]
        )
    else:
        args = (spec, radius, shape, boundary, constant)
    return StepPlan(src, dst, *args, refresh_axes)


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
