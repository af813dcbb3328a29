"""Unit tests for the vectorised sweeps against the loop reference.

The bitwise oracle the backend tests use, ``reference_sweep_padded``,
is checked against the same loop reference (the paper's Figure 2
pseudo-code) here.
"""

import numpy as np
import pytest

from conftest import all_boundary_conditions, stencil_library_2d, stencil_library_3d
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.reference import (
    reference_sweep2d,
    reference_sweep3d,
    reference_sweep_padded,
)
from repro.stencil.shift import pad_array
from repro.stencil.spec import StencilSpec
from repro.stencil.sweep import sweep, sweep_padded


def _padded_oracle(u, spec, boundary, constant=None):
    """``reference_sweep_padded`` of ``u`` padded under ``boundary``."""
    radius = spec.radius()
    return reference_sweep_padded(
        pad_array(u, radius, boundary), spec, radius, u.shape, constant=constant
    )


@pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
@pytest.mark.parametrize(
    "spec", stencil_library_2d(), ids=["jacobi4", "diffusion5", "smooth9", "advection"]
)
def test_sweep2d_matches_reference(rng, bc, spec):
    u = rng.random((9, 11))
    expected = reference_sweep2d(u, spec, bc)
    actual = sweep(u, spec, bc)
    np.testing.assert_allclose(actual, expected, rtol=1e-12)
    np.testing.assert_allclose(_padded_oracle(u, spec, bc), expected, rtol=1e-12)


@pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
def test_sweep2d_with_constant_matches_reference(rng, bc):
    spec = stencil_library_2d()[1]
    u = rng.random((8, 7))
    constant = rng.random((8, 7))
    expected = reference_sweep2d(u, spec, bc, constant=constant)
    actual = sweep(u, spec, bc, constant=constant)
    np.testing.assert_allclose(actual, expected, rtol=1e-12)
    np.testing.assert_allclose(
        _padded_oracle(u, spec, bc, constant), expected, rtol=1e-12
    )


@pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
@pytest.mark.parametrize(
    "spec", stencil_library_3d(), ids=["diffusion7", "box27", "advection3d"]
)
def test_sweep3d_matches_reference(rng, bc, spec):
    u = rng.random((5, 6, 4))
    expected = reference_sweep3d(u, spec, bc)
    actual = sweep(u, spec, bc)
    np.testing.assert_allclose(actual, expected, rtol=1e-12)
    np.testing.assert_allclose(_padded_oracle(u, spec, bc), expected, rtol=1e-12)


@pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
def test_sweep3d_with_constant_matches_reference(rng, bc):
    spec = stencil_library_3d()[0]
    u = rng.random((5, 4, 3))
    constant = rng.random((5, 4, 3))
    expected = reference_sweep3d(u, spec, bc, constant=constant)
    actual = sweep(u, spec, bc, constant=constant)
    np.testing.assert_allclose(actual, expected, rtol=1e-12)
    np.testing.assert_allclose(
        _padded_oracle(u, spec, bc, constant), expected, rtol=1e-12
    )


def test_mixed_boundary_conditions_per_axis(rng):
    spec = stencil_library_2d()[0]
    u = rng.random((6, 8))
    bspec = BoundarySpec((BoundaryCondition.periodic(), BoundaryCondition.zero()))
    expected = reference_sweep2d(u, spec, bspec)
    actual = sweep(u, spec, bspec)
    np.testing.assert_allclose(actual, expected, rtol=1e-12)
    np.testing.assert_allclose(_padded_oracle(u, spec, bspec), expected, rtol=1e-12)


def test_sweep_preserves_dtype(rng):
    spec = stencil_library_2d()[1]
    u32 = rng.random((6, 6)).astype(np.float32)
    assert sweep(u32, spec, BoundaryCondition.clamp()).dtype == np.float32
    u64 = rng.random((6, 6))
    assert sweep(u64, spec, BoundaryCondition.clamp()).dtype == np.float64


def test_sweep_out_parameter_reused(rng):
    spec = stencil_library_2d()[0]
    u = rng.random((5, 5))
    out = np.empty_like(u)
    result = sweep(u, spec, BoundaryCondition.clamp(), out=out)
    assert result is out


def test_sweep_out_shape_mismatch_rejected(rng):
    spec = stencil_library_2d()[0]
    u = rng.random((5, 5))
    with pytest.raises(ValueError, match="out has shape"):
        sweep(u, spec, BoundaryCondition.clamp(), out=np.empty((4, 4)))


def test_sweep_constant_shape_mismatch_rejected(rng):
    spec = stencil_library_2d()[0]
    u = rng.random((5, 5))
    with pytest.raises(ValueError, match="constant has shape"):
        sweep(u, spec, BoundaryCondition.clamp(), constant=np.zeros((2, 2)))


@pytest.mark.parametrize(
    "shape, spec",
    [((3, 3, 3), stencil_library_2d()[0]), ((3, 3), stencil_library_3d()[0])],
    ids=["3d-domain-2d-stencil", "2d-domain-3d-stencil"],
)
def test_sweep_generic_dimension_mismatch(rng, shape, spec):
    with pytest.raises(ValueError, match="dimensions"):
        sweep(rng.random(shape), spec, BoundaryCondition.clamp())


def test_sweep_padded_equals_sweep(rng):
    spec = stencil_library_2d()[2]
    u = rng.random((7, 9))
    bc = BoundaryCondition.periodic()
    padded = pad_array(u, spec.radius(), bc)
    direct = sweep(u, spec, bc)
    via_padded = sweep_padded(padded, spec, spec.radius(), u.shape)
    np.testing.assert_array_equal(direct, via_padded)


def test_identity_stencil_reproduces_input(rng):
    identity = StencilSpec.from_dict({(0, 0): 1.0})
    u = rng.random((6, 6))
    np.testing.assert_allclose(sweep(u, identity, BoundaryCondition.zero()), u)


def test_averaging_stencil_preserves_constant_field_with_clamp():
    spec = StencilSpec.four_point_average()
    u = np.full((10, 10), 5.0)
    result = sweep(u, spec, BoundaryCondition.clamp())
    np.testing.assert_allclose(result, u)


def test_periodic_sweep_preserves_total_mass_for_conservative_stencil(rng):
    # A stencil whose weights sum to 1 redistributes mass; with periodic
    # boundaries nothing leaves the domain, so the total is conserved.
    spec = StencilSpec.four_point_average()
    u = rng.random((16, 16))
    result = sweep(u, spec, BoundaryCondition.periodic())
    assert result.sum() == pytest.approx(u.sum(), rel=1e-12)
