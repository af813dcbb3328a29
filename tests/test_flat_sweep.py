"""The fused backend's flat-stride sweep and its ghost-overwrite rule.

Whole C-contiguous buffer pairs are swept on flat 1-D views (one
contiguous ufunc loop per stencil point and strip), which also
computes the destination's axis >= 1 ghost positions inside the
interior's axis-0 extent.  These tests pin the contract: every interior value equals the
``numpy`` reference (and is bitwise equal to the fused staged route),
the source is never written, nothing outside the flat interior range is
touched, non-contiguous views keep every ghost intact, and the cached
padded constant is never served to the wrong grid.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_boundary_conditions
from repro.backends import FusedBackend, NumpyBackend
from repro.backends import fused as fused_module
from repro.stencil.boundary import BoundarySpec
from repro.stencil.grid import Grid3D
from repro.stencil.shift import interior_view, pad_array, padded_shape
from repro.stencil.spec import StencilSpec

REFERENCE = NumpyBackend()


@st.composite
def sweep_cases(draw):
    """A random operator, layout, boundary mix, dtype and batch width."""
    ndim = draw(st.sampled_from([2, 3]))
    radius = tuple(draw(st.integers(0, 3)) for _ in range(ndim))
    shape = tuple(draw(st.integers(1, 6 if ndim == 2 else 4)) for _ in range(ndim))
    npoints = draw(st.integers(1, 7))
    spec = StencilSpec(
        [
            (
                tuple(draw(st.integers(-r, r)) for r in radius),
                draw(st.floats(-2.0, 2.0, allow_nan=False, width=32)),
            )
            for _ in range(npoints)
        ]
    )
    boundary = BoundarySpec(
        tuple(
            draw(st.sampled_from(all_boundary_conditions())) for _ in range(ndim)
        )
    )
    return {
        "spec": spec,
        "radius": radius,
        "shape": shape,
        "boundary": boundary,
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "constant": draw(st.booleans()),
        "batch": draw(st.sampled_from([None, 1, 3, 8])),
        # Small strips split even these domains into many strips, the
        # last one partial.
        "strip": draw(st.sampled_from([5, 64, fused_module._STRIP])),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


def _padded(rng, case):
    u = (rng.random(case["shape"]) * 100.0 - 50.0).astype(case["dtype"])
    return pad_array(u, case["radius"], case["boundary"])


def _constant(rng, case):
    if not case["constant"]:
        return None
    return (rng.random(case["shape"]) * 3.0).astype(case["dtype"])


def _bits(a):
    """Raw bytes of ``a``: equality here is bit-for-bit, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint8)


def _flat_range(shape, radius, interior_shape):
    lo = np.ravel_multi_index(radius, shape)
    last = tuple(r + n - 1 for r, n in zip(radius, interior_shape))
    return lo, np.ravel_multi_index(last, shape) + 1


class TestFlatSweepProperty:
    @settings(max_examples=120)
    @given(case=sweep_cases())
    def test_matches_reference_and_touches_only_the_flat_range(self, case):
        with mock.patch.object(fused_module, "_STRIP", case["strip"]):
            self._check(case)

    @staticmethod
    def _check(case):
        rng = np.random.default_rng(case["seed"])
        spec, radius, shape = case["spec"], case["radius"], case["shape"]
        constant = _constant(rng, case)
        fused = FusedBackend()
        if case["batch"] is None:
            src = _padded(rng, case)
            dst = rng.random(src.shape).astype(case["dtype"])
            src_before, dst_before = src.copy(), dst.copy()
            got = fused.sweep_into(src, dst, spec, radius, shape, constant=constant)
            staged = fused.sweep_padded(src, spec, radius, shape, constant=constant)
            want = REFERENCE.sweep_padded(src, spec, radius, shape, constant=constant)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(_bits(got), _bits(staged))
            # The ghost-overwrite rule: nothing outside [lo, hi) moves.
            lo, hi = _flat_range(src.shape, radius, shape)
            flat, before = dst.reshape(-1), dst_before.reshape(-1)
            np.testing.assert_array_equal(_bits(flat[:lo]), _bits(before[:lo]))
            np.testing.assert_array_equal(_bits(flat[hi:]), _bits(before[hi:]))
        else:
            nb = case["batch"]
            slots = [_padded(rng, case) for _ in range(nb)]
            src = np.stack(slots, axis=-1)
            dst = rng.random(src.shape).astype(case["dtype"])
            src_before = src.copy()
            got = fused.batch_step_into(
                src, dst, spec, radius, shape, case["boundary"], constant=constant
            )
            assert got.shape == shape + (nb,)
            for b, slot in enumerate(slots):
                want = REFERENCE.sweep_padded(
                    slot, spec, radius, shape, constant=constant
                )
                np.testing.assert_array_equal(got[..., b], want)
        # The batched step refreshes ghosts, which pad_array already
        # built bit for bit, so the source comes back unchanged too.
        np.testing.assert_array_equal(_bits(src), _bits(src_before))


def test_offset_beyond_the_ghost_radius_is_rejected(rng):
    src = rng.random((6, 6))
    dst = np.zeros_like(src)
    spec = StencilSpec([((2, 0), 1.0)])
    with pytest.raises(ValueError, match="exceeds ghost radius"):
        FusedBackend().sweep_into(src, dst, spec, 1, (4, 4))


class TestViews:
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_axis0_slab_of_a_larger_buffer(self, rng, ndim):
        """A tile that is an axis-0 slab only writes its own rows."""
        shape = (5, 7) if ndim == 2 else (4, 5, 3)
        radius = (1,) * ndim
        spec = _full_box(ndim)
        pshape = padded_shape(shape, radius)
        extra = 3
        big_shape = (pshape[0] + 2 * extra,) + pshape[1:]
        src_big = rng.random(big_shape).astype(np.float32)
        dst_big = rng.random(big_shape).astype(np.float32)
        before = dst_big.copy()
        rows = slice(extra, extra + pshape[0])
        src, dst = src_big[rows], dst_big[rows]
        assert src.flags.c_contiguous and dst.flags.c_contiguous
        constant = rng.random(shape).astype(np.float32)
        got = FusedBackend().sweep_into(
            src, dst, spec, radius, shape, constant=constant
        )
        want = REFERENCE.sweep_padded(src, spec, radius, shape, constant=constant)
        np.testing.assert_array_equal(got, want)
        # Every row outside the view's interior rows — the neighbours'
        # rows and the view's own axis-0 ghost rows — is bit-identical.
        keep = np.ones(big_shape[0], dtype=bool)
        keep[extra + radius[0]:extra + radius[0] + shape[0]] = False
        np.testing.assert_array_equal(_bits(dst_big[keep]), _bits(before[keep]))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_non_contiguous_view_is_staged_and_keeps_ghosts(
        self, rng, ndim, monkeypatch
    ):
        """A tile sliced along axis 1 takes the staged path: no ghost moves."""
        shape = (5, 6) if ndim == 2 else (4, 5, 3)
        radius = (2,) * ndim
        spec = _full_box(ndim)
        pshape = padded_shape(shape, radius)
        extra = 2
        big_shape = (pshape[0], pshape[1] + 2 * extra) + pshape[2:]
        src_big = rng.random(big_shape).astype(np.float64)
        dst_big = rng.random(big_shape).astype(np.float64)
        before = dst_big.copy()
        cols = (slice(None), slice(extra, extra + pshape[1]))
        src, dst = src_big[cols], dst_big[cols]
        assert not dst.flags.c_contiguous
        fused = FusedBackend()

        def no_flat(*args, **kwargs):
            raise AssertionError("the flat sweep ran on a non-contiguous view")

        monkeypatch.setattr(fused, "_sweep_flat", no_flat)
        got = fused.sweep_into(src, dst, spec, radius, shape)
        want = REFERENCE.sweep_padded(src, spec, radius, shape)
        np.testing.assert_array_equal(got, want)
        mask = np.ones(big_shape, dtype=bool)
        interior_view(mask[cols], radius)[...] = False
        np.testing.assert_array_equal(_bits(dst_big[mask]), _bits(before[mask]))


def _full_box(ndim):
    """Every offset of the radius-1 box, distinct weights (asymmetric)."""
    return StencilSpec(
        [
            (tuple(o - 1 for o in idx), 0.05 * (i + 1))
            for i, idx in enumerate(np.ndindex((3,) * ndim))
        ]
    )


class TestConstantCache:
    def test_alternating_grids_never_share_a_padded_constant(self, rng):
        """Same start, same operator: only the constant tells them apart."""
        shape, spec = (6, 5, 3), _full_box(3)
        bc = all_boundary_conditions()[0]
        fused = FusedBackend()
        u0 = rng.random(shape).astype(np.float32)
        constants = [rng.random(shape).astype(np.float32) for _ in range(2)]
        grids = [Grid3D(u0, spec, bc, constant=c, backend=fused) for c in constants]
        refs = [Grid3D(u0, spec, bc, constant=c, backend="numpy") for c in constants]
        for _ in range(3):
            for grid, ref in zip(grids, refs):
                grid.step()
                ref.step()
                np.testing.assert_array_equal(grid.u, ref.u)

    def test_freed_constant_is_not_served_stale(self, rng):
        """A new constant at a recycled address must miss the cache."""
        shape, radius = (8, 7), (1, 1)
        spec = _full_box(2)
        fused = FusedBackend()
        src = pad_array(rng.random(shape), radius, all_boundary_conditions()[0])
        dst = np.zeros_like(src)
        for step in range(8):
            c = np.full(shape, float(step))
            got = fused.sweep_into(src, dst, spec, radius, shape, constant=c)
            want = REFERENCE.sweep_padded(src, spec, radius, shape, constant=c)
            np.testing.assert_array_equal(got, want)
            del c

    def test_batched_constant_hits_the_cache(self, rng):
        """The per-call broadcast view of a batched step reuses one copy."""
        shape, radius, nb = (6, 5, 3), (1, 1, 1), 3
        fused = FusedBackend()
        constant = rng.random(shape).astype(np.float32)
        pad = padded_shape(shape, radius) + (nb,)
        src = rng.random(pad).astype(np.float32)
        dst = np.zeros_like(src)
        boundary = all_boundary_conditions()[0]
        for _ in range(3):
            fused.batch_step_into(
                src, dst, _full_box(3), radius, shape, boundary, constant=constant
            )
            src, dst = dst, src
        cached = [k for k in fused._cache() if k[0] == "constant"]
        assert len(cached) == 1


class TestBatchedAllocation:
    def test_warmed_batched_step_allocates_no_domain(self, rng):
        """The zero-allocation-per-step gate holds for the batched step."""
        shape, radius, nb = (32, 32, 8), (1, 1, 1), 8
        spec = _full_box(3)
        boundary = all_boundary_conditions()[0]
        fused = FusedBackend()
        constant = rng.random(shape).astype(np.float32)
        pad = padded_shape(shape, radius) + (nb,)
        src = rng.random(pad).astype(np.float32)
        dst = np.zeros_like(src)
        domain_bytes = int(np.prod(shape)) * nb * 4

        def step():
            fused.batch_step_into_with_checksums(
                src, dst, spec, radius, shape, boundary, (0,),
                constant=constant, checksum_dtype=np.float64,
            )

        step()
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(5):
            step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - baseline < domain_bytes / 2
