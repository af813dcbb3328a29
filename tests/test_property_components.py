"""Property-based tests for supporting components: sweeps, bit flips,
decomposition and checksums."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checksums import column_checksum, row_checksum
from repro.faults.bitflip import bit_field, flip_bit_in_array
from repro.parallel.decomposition import decompose, partition_extent
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.reference import reference_sweep2d
from repro.stencil.spec import StencilSpec
from repro.stencil.sweep import sweep


def boundary_conditions():
    return st.sampled_from(
        [
            BoundaryCondition.clamp(),
            BoundaryCondition.periodic(),
            BoundaryCondition.zero(),
            BoundaryCondition.constant(-2.5),
        ]
    )


@st.composite
def small_domains(draw):
    nx = draw(st.integers(3, 8))
    ny = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).uniform(-5.0, 5.0, size=(nx, ny))


@st.composite
def small_specs(draw):
    offsets = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    points = draw(
        st.dictionaries(
            offsets,
            st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
        )
    )
    return StencilSpec.from_dict(points)


@given(domain=small_domains(), spec=small_specs(), bc=boundary_conditions())
@settings(max_examples=40)
def test_vectorised_sweep_equals_reference_sweep(domain, spec, bc):
    """The vectorised sweep agrees with the literal loop implementation."""
    bspec = BoundarySpec.uniform(bc, 2)
    np.testing.assert_allclose(
        sweep(domain, spec, bspec),
        reference_sweep2d(domain, spec, bspec),
        rtol=1e-10,
        atol=1e-12,
    )


@given(domain=small_domains())
def test_checksum_totals_agree(domain):
    """Row and column checksums always sum to the same domain total."""
    assert np.isclose(row_checksum(domain).sum(), column_checksum(domain).sum())


@given(
    seed=st.integers(0, 2**31 - 1),
    bit=st.integers(0, 31),
    nx=st.integers(2, 10),
    ny=st.integers(2, 10),
)
def test_bitflip_is_an_involution_and_local(seed, bit, nx, ny):
    """Flipping the same bit twice restores the array; one flip touches one cell."""
    rng = np.random.default_rng(seed)
    arr = rng.uniform(0.1, 100.0, size=(nx, ny)).astype(np.float32)
    original = arr.copy()
    index = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))

    old, new = flip_bit_in_array(arr, index, bit)
    assert old == original[index]
    changed = np.argwhere(arr != original)
    assert len(changed) <= 1  # NaN payloads compare unequal at exactly one site
    flip_bit_in_array(arr, index, bit)
    np.testing.assert_array_equal(arr, original)


@given(seed=st.integers(0, 2**31 - 1), bit=st.integers(23, 30))
def test_exponent_flip_changes_magnitude_significantly(seed, bit):
    """Exponent bit-flips change the value by at least a factor of 2."""
    rng = np.random.default_rng(seed)
    arr = rng.uniform(1.0, 100.0, size=4).astype(np.float32)
    old, new = flip_bit_in_array(arr, 1, bit)
    assert bit_field(bit, np.float32) == "exponent"
    if np.isfinite(new) and new != 0.0:
        ratio = abs(new) / abs(old)
        assert ratio >= 2.0 or ratio <= 0.5


@given(n=st.integers(1, 500), parts=st.integers(1, 16))
def test_partition_extent_is_a_partition(n, parts):
    """Block partitioning covers the range exactly, in order, without gaps."""
    if parts > n:
        parts = n
    bounds = partition_extent(n, parts)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == n
    for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
        assert a1 == b0
        assert a1 > a0
    sizes = [b - a for a, b in bounds]
    assert max(sizes) - min(sizes) <= 1


@given(
    nx=st.integers(4, 20),
    ny=st.integers(4, 20),
    px=st.integers(1, 4),
    py=st.integers(1, 4),
)
def test_decomposition_covers_domain_exactly_once(nx, ny, px, py):
    """Every domain point belongs to exactly one tile."""
    px, py = min(px, nx), min(py, ny)
    boxes = decompose((nx, ny), (px, py))
    counts = np.zeros((nx, ny), dtype=int)
    for box in boxes:
        counts[box.slices] += 1
    assert (counts == 1).all()
