"""Property-based tests for 3D (per-layer) ABFT behaviour."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checksums import checksum
from repro.core.interpolation import interpolate_checksum
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.spec import StencilSpec
from repro.stencil.sweep import sweep


def boundary_conditions():
    return st.sampled_from(
        [
            BoundaryCondition.clamp(),
            BoundaryCondition.periodic(),
            BoundaryCondition.zero(),
            BoundaryCondition.constant(0.5),
        ]
    )


@st.composite
def stencil_specs_3d(draw):
    offsets = st.tuples(
        st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)
    )
    points = draw(
        st.dictionaries(
            offsets,
            st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=9,
        )
    )
    return StencilSpec.from_dict(points)


@st.composite
def domains_3d(draw):
    nx = draw(st.integers(3, 7))
    ny = draw(st.integers(3, 7))
    nz = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).uniform(-8.0, 8.0, size=(nx, ny, nz))


@given(domain=domains_3d(), spec=stencil_specs_3d(), bc=boundary_conditions(),
       axis=st.sampled_from([0, 1]))
@settings(max_examples=40)
def test_3d_interpolation_matches_direct_checksum(domain, spec, bc, axis):
    """Theorem 1 applied per layer (vectorised) holds for arbitrary 3D stencils."""
    bspec = BoundarySpec.uniform(bc, 3)
    new_domain = sweep(domain, spec, bspec)
    predicted = interpolate_checksum(checksum(domain, axis), domain, spec, bspec, axis)
    np.testing.assert_allclose(predicted, checksum(new_domain, axis),
                               rtol=1e-9, atol=1e-9)


@given(domain=domains_3d(), bc=boundary_conditions(),
       seed=st.integers(0, 2**16),
       corruption=st.floats(10.0, 1e5, allow_nan=False))
@settings(max_examples=25)
def test_3d_single_corruption_localised_to_its_layer(domain, bc, seed, corruption):
    """A corrupted point only perturbs the checksum entries of its own layer."""
    from repro.core.detection import detect_errors

    spec = StencilSpec.seven_point_3d(0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
    bspec = BoundarySpec.uniform(bc, 3)
    new_domain = sweep(domain, spec, bspec)
    predicted = interpolate_checksum(checksum(domain, 0), domain, spec, bspec, 0)

    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, domain.shape[0]))
    y = int(rng.integers(0, domain.shape[1]))
    z = int(rng.integers(0, domain.shape[2]))
    new_domain[x, y, z] += corruption

    result = detect_errors(checksum(new_domain, 0), predicted, 1e-7)
    assert result.detected
    flagged_layers = {int(idx[1]) for idx in result.mismatch_indices}
    assert flagged_layers == {z}
