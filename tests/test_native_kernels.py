"""The native flat kernels behind the ``fused`` backend.

The compiled strip loop and column fold must be bitwise equal to the
NumPy code they replace, which stays the only path for every other
dtype, view and platform.  These tests compare the two paths on the
same inputs (the NumPy path is forced by marking the library
unavailable), pin which views take which path, and check that a build
or load failure is reported by name instead of passing as a fallback.
"""

import concurrent.futures
import contextlib
import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import step_plan
from repro.backends import FusedBackend, native
from repro.backends.base import Backend
from repro.parallel.decomposition import decompose
from repro.core.interpolation import interpolate_checksum_padded
from repro.stencil.reference import reference_sweep_padded
from repro.stencil.shift import interior_slices, interior_view, padded_shape
from repro.stencil.spec import StencilSpec

# The specials (inf, NaN) drawn below make NumPy warn; the values are checked.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

SRC = str(Path(__file__).resolve().parents[1] / "src")
HAVE_CC = shutil.which("cc") is not None


@pytest.fixture(scope="module")
def lib():
    """The loaded library; the tests that need it skip, saying why, without."""
    loaded = native.library()
    if loaded is None:
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    return loaded


def numpy_only():
    """Force the NumPy kernels: the library reads as unavailable."""
    return mock.patch.object(native, "_state", "forced unavailable by a test")


def _bits(a):
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def _assert_bitwise(got, want):
    """Equal bits; where both are NaN, any NaN.

    When two different NaNs meet in one add, which payload survives is
    not specified: NumPy's own SIMD and scalar loops pick different
    operands (a 3- and a 17-element ``np.add`` already disagree), so
    only the NaN positions are compared there.
    """
    assert got.shape == want.shape and got.dtype == want.dtype
    both_nan = np.isnan(got) & np.isnan(want)
    np.testing.assert_array_equal(_bits(got)[~both_nan], _bits(want)[~both_nan])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))


class Spy:
    """Wraps a compiled kernel, counts its calls and keeps the last arguments."""

    def __init__(self, fn):
        self.fn, self.calls, self.args = fn, 0, None

    def __call__(self, *args):
        self.calls += 1
        self.args = args
        return self.fn(*args)


def spy_on(table):
    """Replace every kernel in ``table`` (a library dict) with a spy."""
    spies = {key: Spy(fn) for key, fn in table.items()}
    return mock.patch.dict(table, spies), spies


def _calls(spies):
    return sum(s.calls for s in spies.values())


# --------------------------------------------------------------------------
# the sweep
# --------------------------------------------------------------------------

def _fill(rng, shape, dtype, specials):
    a = (rng.random(shape) * 100.0 - 50.0).astype(dtype)
    if specials:
        flat = a.reshape(-1)
        tiny = np.finfo(dtype).smallest_subnormal
        for value in (np.inf, -np.inf, np.nan, tiny * 3, -tiny * 7):
            flat[rng.integers(0, flat.size, 2)] = value
    return a


@st.composite
def flat_sweeps(draw):
    """A buffer pair, an operator and a constant for one flat sweep."""
    ndim = draw(st.sampled_from([2, 3, 4]))
    radius = tuple(draw(st.integers(0, 3)) for _ in range(ndim))
    if ndim == 4:
        radius = radius[:3] + (0,)  # a batch: the run axis has no ghosts
    # Interiors from a few elements to several blocks of native.BLOCK_BYTES.
    hi = {2: 40, 3: 12, 4: 6}[ndim]
    shape = tuple(draw(st.integers(1, hi)) for _ in range(ndim))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    points = tuple(
        (
            tuple(draw(st.integers(-r, r)) for r in radius),
            draw(st.floats(-2.0, 2.0, allow_nan=False, width=width)),
        )
        for _ in range(draw(st.integers(1, 27)))
    )
    return {
        "points": points,
        "radius": radius,
        "shape": shape,
        "dtype": dtype,
        "constant": draw(st.booleans()),
        "specials": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


def _sweep_both_ways(case):
    """The destination after the compiled and after the NumPy sweep."""
    backend = FusedBackend()
    rng = np.random.default_rng(case["seed"])
    pshape = padded_shape(case["shape"], case["radius"])
    src = _fill(rng, pshape, case["dtype"], case["specials"])
    dst = rng.random(pshape).astype(case["dtype"])
    constant = (
        _fill(rng, case["shape"], case["dtype"], case["specials"])
        if case["constant"]
        else None
    )
    args = (case["points"], case["radius"], case["shape"])
    outs = []
    for force_numpy in (False, True):
        out = dst.copy()
        plan = step_plan(src, out, *args, constant=constant)
        with numpy_only() if force_numpy else contextlib.nullcontext():
            backend.sweep_into(src, out, *args, constant, plan)
        outs.append(out)
    return outs


class TestCompiledSweep:
    @settings(max_examples=300)
    @given(case=flat_sweeps())
    def test_bitwise_equal_to_the_strip_loop(self, lib, case):
        patch, spies = spy_on(lib.sweep)
        with patch:
            compiled, strip_loop = _sweep_both_ways(case)
        assert _calls(spies) == 1
        _assert_bitwise(compiled, strip_loop)
        if not case["specials"]:
            np.testing.assert_array_equal(_bits(compiled), _bits(strip_loop))

    @pytest.mark.parametrize("path", ["sweep_into", "step_into"])
    @pytest.mark.parametrize("constant", [False, True], ids=["no-constant", "constant"])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_edges(self, lib, rng, dtype, blocks, extra, constant, path):
        """Flat ranges one element short of, at and past whole blocks.

        The interior is one row of ``n`` elements, so the flat range
        ``[lo, hi)`` is ``n`` long: its last block is one element short
        of full, full, or one element long.  ``step_into`` hands the
        last axis's ghost lanes to the compiled sweep, which fills them;
        the source halo and the destination must both equal the NumPy
        path's bit for bit.
        """
        from repro.stencil.boundary import BoundaryCondition

        block = native.BLOCK_BYTES // np.dtype(dtype).itemsize
        shape, radius = (1, blocks * block + extra), (1, 1)
        spec = StencilSpec.from_dict(
            {(0, 0): 0.5, (-1, 0): 0.125, (1, 0): 0.0625, (0, -1): 0.2, (0, 1): 0.1}
        )
        src = rng.random(padded_shape(shape, radius)).astype(dtype)
        dst = rng.random(src.shape).astype(dtype)
        const = rng.random(shape).astype(dtype) if constant else None
        fused = FusedBackend()
        patch, spies = spy_on(lib.sweep)
        pairs = []
        for force_numpy in (False, True):
            s, d = src.copy(), dst.copy()
            plan = step_plan(
                s, d, spec, radius, shape, BoundaryCondition.clamp(), const
            )
            with numpy_only() if force_numpy else patch:
                if path == "step_into":
                    fused.step_into(s, d, plan)
                else:
                    fused.sweep_into(
                        s, d, spec, radius, shape, constant=const, plan=plan
                    )
            pairs.append((s, d))
        (spy,) = [sp for sp in spies.values() if sp.calls]
        assert spy.calls == 1
        lo, hi, lane = spy.args[2], spy.args[3], spy.args[8]
        assert hi - lo == shape[1]
        assert (lane is not None) == (path == "step_into")
        for got, want in zip(*pairs):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_grid_steps_take_the_compiled_sweep(self, lib):
        from repro.experiments.common import make_hotspot_app

        app = make_hotspot_app((24, 20, 6))
        grid, reference = app.build_grid(), app.build_grid()
        patch, spies = spy_on(lib.sweep)
        with patch:
            grid.run(3)
        assert _calls(spies) == 3
        with numpy_only():
            reference.run(3)
        np.testing.assert_array_equal(_bits(grid.u), _bits(reference.u))


class TestSweepGuards:
    """Views the compiled sweep must not take: the NumPy loop runs them."""

    CASE = {
        "points": StencilSpec.seven_point_3d(0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1),
        "radius": (1, 1, 1),
        "shape": (5, 6, 7),
    }

    def _pair(self, rng, dtype=np.float32):
        pshape = padded_shape(self.CASE["shape"], self.CASE["radius"])
        return rng.random(pshape).astype(dtype), np.zeros(pshape, dtype)

    def _sweep(self, src, dst):
        args = (self.CASE["points"], self.CASE["radius"], self.CASE["shape"])
        FusedBackend().sweep_into(src, dst, *args, plan=step_plan(src, dst, *args))
        return interior_view(dst, self.CASE["radius"])

    def _want(self, src):
        return reference_sweep_padded(
            np.asarray(src, dtype=src.dtype.newbyteorder("=")),
            self.CASE["points"], self.CASE["radius"], self.CASE["shape"],
        )

    def _no_compiled_call(self):
        lib = native.library()
        return spy_on({} if lib is None else lib.sweep)

    def test_byte_swapped_pair(self, rng):
        src, dst = self._pair(rng)
        src, dst = src.astype(">f4"), dst.astype(">f4")
        patch, spies = self._no_compiled_call()
        with patch:
            got = self._sweep(src, dst)
        assert _calls(spies) == 0
        np.testing.assert_array_equal(got, self._want(src))

    def test_unaligned_pair(self, rng):
        src, dst = self._pair(rng)
        raw = np.zeros(src.nbytes + 1, np.uint8)
        odd = np.frombuffer(raw.data, dtype=np.float32, count=src.size, offset=1)
        odd = odd.reshape(src.shape)
        odd[...] = src
        assert not odd.flags.aligned and odd.flags.c_contiguous
        patch, spies = self._no_compiled_call()
        with patch:
            got = self._sweep(odd, dst)
        assert _calls(spies) == 0
        np.testing.assert_array_equal(got, self._want(src))

    def test_read_only_destination_raises_numpys_error(self, rng):
        src, dst = self._pair(rng)
        dst.flags.writeable = False
        patch, spies = self._no_compiled_call()
        with patch, pytest.raises(ValueError, match="read-only"):
            self._sweep(src, dst)
        assert _calls(spies) == 0

    def test_read_only_source_is_fine(self, rng):
        src, dst = self._pair(rng)
        src.flags.writeable = False
        np.testing.assert_array_equal(self._sweep(src, dst), self._want(src))


class TestFlatPlans:
    def test_each_operator_sweeps_with_its_own_weights(self, rng):
        """Operators with one offset table each sweep with their own cast
        weights, kept in their pair's plan: weights one ulp apart, and
        signed zero weights (which a :class:`StencilSpec` cannot hold,
        but an operator tuple can)."""
        shape, radius = (6, 7, 5), (1, 1, 1)
        offsets = [(0, 0, 0), (1, 0, 0), (0, -1, 0), (0, 0, 1)]
        weights = [0.3, 0.2, 0.1, 0.4]
        nudged = weights[:2] + [float(np.nextafter(0.1, 1.0))] + weights[3:]
        specs = [
            StencilSpec(list(zip(offsets, weights))),
            StencilSpec(list(zip(offsets, nudged))),
            StencilSpec(list(zip(offsets, weights))),
            (((0, 0, 0), 0.0),),
            (((0, 0, 0), -0.0),),
            (((0, 0, 0), 0.0),),
        ]
        # float64: a one-ulp change of a weight shows in the result.
        src = rng.random(padded_shape(shape, radius)) + 0.5
        fused = FusedBackend()
        results = []
        def sweep(spec):
            dst = np.zeros_like(src)
            return fused.sweep_into(
                src, dst, spec, radius, shape,
                plan=step_plan(src, dst, spec, radius, shape),
            )

        for spec in specs:
            got = sweep(spec)
            with numpy_only():
                want = sweep(spec)
            np.testing.assert_array_equal(_bits(got), _bits(want))
            results.append(np.ascontiguousarray(got))
        assert not np.array_equal(_bits(results[0]), _bits(results[1]))
        np.testing.assert_array_equal(_bits(results[0]), _bits(results[2]))
        assert not np.signbit(results[3]).any() and np.signbit(results[4]).all()
        assert not np.signbit(results[5]).any()


# --------------------------------------------------------------------------
# the fold
# --------------------------------------------------------------------------

CS_DTYPES = [(np.float32, np.float64), (np.float32, None), (np.float64, np.float64)]


def _fold_views(rng, kind, shape, radius, dtype):
    if kind == "3d":
        padded = rng.random(padded_shape(shape, radius))
        return interior_view(padded.astype(dtype), radius)
    padded = rng.random(padded_shape(shape[:2], radius[:2]))
    return interior_view(padded.astype(dtype), radius[:2])


class TestCompiledFold:
    @settings(max_examples=200)
    @given(
        kind=st.sampled_from(["3d", "2d"]),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 9), st.integers(3, 9)),
        r=st.integers(1, 3),
        dtypes=st.sampled_from(CS_DTYPES),
        specials=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bitwise_equal_to_the_axis0_sum(
        self, lib, kind, shape, r, dtypes, specials, seed
    ):
        rng = np.random.default_rng(seed)
        dtype, cs_dtype = dtypes
        radius = (1, 1, r)
        u = _fold_views(rng, kind, shape, radius, dtype)
        if specials:
            u[rng.integers(0, u.shape[0]), 0] = np.inf
            u[-1, -1] = -0.0
        # The fold applies when the gap between rows is narrower than a
        # row (3D) or when a 2D row has two lanes or more.
        folds = 2 * r < shape[2] if kind == "3d" else shape[1] > 1
        patch, spies = spy_on(lib.fold)
        with patch:
            got = FusedBackend().checksum(u, 0, dtype=cs_dtype)
        assert _calls(spies) == int(folds)
        _assert_bitwise(got, u.sum(axis=0, dtype=cs_dtype))

    def test_signed_zero_columns_sum_to_plus_zero(self, lib):
        u = interior_view(np.full((6, 6, 6), -0.0, np.float32), 1)
        _assert_bitwise(FusedBackend().checksum(u, 0), u.sum(axis=0))
        assert not np.signbit(FusedBackend().checksum(u, 0)).any()

    def test_returned_checksums_never_alias(self, lib, rng):
        fused = FusedBackend()
        for u in (interior_view(rng.random((9, 9, 9)), 1), rng.random((9, 9))):
            first = fused.checksum(u, 0)
            second = fused.checksum(u, 0)
            first[...] = -1.0
            _assert_bitwise(second, u.sum(axis=0))


class TestFoldGuards:
    """Views the compiled fold must not take, and what they take instead."""

    def _fold(self, u, cs_dtype=np.float64):
        lib = native.library()
        patch, spies = spy_on({} if lib is None else lib.fold)
        with patch, mock.patch.object(
            Backend, "checksum", autospec=True, side_effect=Backend.checksum
        ) as parent:
            got = FusedBackend().checksum(u, 0, dtype=cs_dtype)
        assert _calls(spies) == 0
        _assert_bitwise(got, u.sum(axis=0, dtype=cs_dtype))
        return parent.called

    def test_byte_swapped_3d_interior_takes_the_numpy_lane_fold(self, rng):
        u = interior_view(rng.random((12, 10, 9)).astype(">f4"), 1)
        assert FusedBackend._lane_planes(u) is not None
        assert not self._fold(u)

    def test_byte_swapped_2d_block_takes_the_base_reduction(self, rng):
        assert self._fold(interior_view(rng.random((12, 10)).astype(">f8"), 1))

    def test_unaligned_views(self, rng):
        raw = np.zeros(12 * 10 * 9 * 4 + 1, np.uint8)
        odd = np.frombuffer(raw.data, np.float32, count=12 * 10 * 9, offset=1)
        odd = odd.reshape(12, 10, 9)
        odd[...] = rng.random(odd.shape)
        assert not odd.flags.aligned
        assert not self._fold(interior_view(odd, 1))  # NumPy lane fold
        block = odd[1:-1, 2, :]  # unit-stride rows, but unaligned
        assert block.strides[1] == 4 and not block.flags.aligned
        assert self._fold(block)  # the base reduction

    def test_one_lane_2d_views_take_the_base_reduction(self, rng):
        """One lane would be NumPy's pairwise sum, not a lane fold."""
        assert self._fold(rng.random((300, 1)).astype(np.float32), None)

    def test_other_dtype_pairs(self, rng):
        assert self._fold(rng.random((20, 8)), np.float32)
        assert self._fold(rng.random((20, 8)).astype(np.float16), np.float32)

    @pytest.mark.parametrize("parts", [(1, 1, 2), (2, 1, 3)])
    def test_tiles_split_along_the_last_axis(self, rng, parts):
        interior = interior_view(rng.random((10, 9, 14)).astype(np.float32), 1)
        for box in decompose(interior.shape, parts):
            assert self._fold(interior[box.slices], None)


# --------------------------------------------------------------------------
# the Theorem-1 strips and terms
# --------------------------------------------------------------------------

#: (domain dtype, checksum dtype or ``None`` for the domain's).
INTERP_DTYPES = [(np.float32, np.float64), (np.float32, None), (np.float64, np.float64)]


def _asymmetric_spec(rng, ndim, r):
    """A spec reaching ``-r`` and ``+r`` along the reduce axis, and
    asymmetric along every other axis, with random weights."""
    points = {(0,) * ndim: rng.uniform(-1.0, 1.0)}
    for o_d in (-r, r, 1, -1):
        for axis in range(1, ndim):
            offset = [0] * ndim
            offset[0] = o_d
            offset[axis] = int(rng.integers(-r, r + 1))
            points[tuple(offset)] = rng.uniform(-1.0, 1.0)
    for axis in range(1, ndim):
        offset = [0] * ndim
        offset[axis] = r
        points[tuple(offset)] = rng.uniform(-1.0, 1.0)
    return StencilSpec.from_dict(points)


def _interp_case(rng, layout, r, dtypes, constant, closed):
    """``(cs, padded, op, radius, shape, constant_sum, boundary)``."""
    from repro.stencil.boundary import BoundaryCondition, BoundarySpec
    from repro.stencil.shift import pad_array
    from repro.stencil.spec import BatchOperator

    dtype, cs_dtype = dtypes
    base = {"2d": (9, 11), "3d": (7, 6, 5), "4d": (7, 6, 5)}[layout]
    spec = _asymmetric_spec(rng, len(base), r)
    kinds = (
        BoundaryCondition.clamp(), BoundaryCondition.periodic(),
        BoundaryCondition.zero(),
    )
    conditions = tuple(kinds[int(rng.integers(0, 3))] for _ in base)
    radius = spec.radius()
    op, shape = spec, base
    if layout == "4d":  # the stacked batch: runs along a trailing axis
        op, radius, shape = BatchOperator(spec), radius + (0,), base + (4,)
        conditions += (BoundaryCondition.clamp(),)
    boundary = BoundarySpec(conditions)
    u = (rng.random(shape) * 100.0 - 50.0).astype(dtype)
    if closed:
        padded = pad_array(u, radius, boundary)
    else:  # the ghosts hold halo data
        padded = (rng.random(padded_shape(shape, radius)) * 100.0).astype(dtype)
        padded[interior_slices(radius, len(shape))] = u
    cs = u.sum(axis=0, dtype=cs_dtype)
    constant_sum = {
        "none": None,
        "full": rng.uniform(-5.0, 5.0, cs.shape),
        "broadcast": rng.uniform(-5.0, 5.0, cs.shape[:-1] + (1,)),
    }[constant]
    return cs, padded, op, radius, shape, constant_sum, boundary if closed else None


def _interpolate(case):
    cs, padded, op, radius, shape, constant_sum, boundary = case
    return interpolate_checksum_padded(
        cs, padded, op, radius, shape, 0, constant_sum=constant_sum,
        boundary=boundary,
    )


class TestCompiledInterpolation:
    @pytest.mark.parametrize("closed", [False, True], ids=["domain", "closed"])
    @pytest.mark.parametrize("constant", ["none", "full", "broadcast"])
    @pytest.mark.parametrize("dtypes", INTERP_DTYPES)
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("layout", ["2d", "3d", "4d"])
    def test_bitwise_equal_to_the_numpy_terms(
        self, lib, rng, layout, r, dtypes, constant, closed
    ):
        case = _interp_case(rng, layout, r, dtypes, constant, closed)
        patch, spies = spy_on(lib.interp)
        with patch:
            got = _interpolate(case)
        assert _calls(spies) == 1
        with numpy_only():
            want = _interpolate(case)
        _assert_bitwise(got, want)

    @settings(max_examples=100)
    @given(
        layout=st.sampled_from(["2d", "3d", "4d"]),
        r=st.integers(1, 2),
        dtypes=st.sampled_from(INTERP_DTYPES),
        constant=st.sampled_from(["none", "full", "broadcast"]),
        closed=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_specs(self, lib, layout, r, dtypes, constant, closed, seed):
        case = _interp_case(
            np.random.default_rng(seed), layout, r, dtypes, constant, closed
        )
        got = _interpolate(case)
        with numpy_only():
            _assert_bitwise(got, _interpolate(case))

    def test_returned_vectors_never_alias(self, lib):
        case = _interp_case(
            np.random.default_rng(3), "3d", 1, INTERP_DTYPES[0], "full", True
        )
        first, second = _interpolate(case), _interpolate(case)
        first[...] = np.nan
        assert not np.shares_memory(first, second)
        with numpy_only():
            _assert_bitwise(second, _interpolate(case))


class TestInterpolationGuards:
    """Calls the compiled terms must not take; NumPy runs them."""

    def _numpy_runs(self, cs, padded, op, radius, shape, reduce_axis=0):
        lib = native.library()
        patch, spies = spy_on({} if lib is None else lib.interp)
        with patch:
            got = interpolate_checksum_padded(cs, padded, op, radius, shape, reduce_axis)
        assert _calls(spies) == 0
        with numpy_only():
            _assert_bitwise(
                got, interpolate_checksum_padded(cs, padded, op, radius, shape, reduce_axis)
            )

    def test_row_checksum(self, rng):
        cs, padded, op, radius, shape, _, _ = _interp_case(
            rng, "3d", 1, INTERP_DTYPES[0], "none", False
        )
        u = padded[interior_slices(radius, 3)]
        self._numpy_runs(u.sum(axis=1, dtype=np.float64), padded, op, radius, shape, 1)

    def test_narrower_batch_and_slot_views(self, rng):
        cs, padded, op, radius, shape, _, _ = _interp_case(
            rng, "4d", 1, INTERP_DTYPES[0], "none", False
        )
        narrow = padded[..., :3]  # the first runs of a wider batch: strided
        self._numpy_runs(cs[..., :3].copy(), narrow, op, radius, shape[:3] + (3,))
        slot = padded[..., 1]
        spec = StencilSpec([(o[:3], w) for o, w in op])
        self._numpy_runs(cs[..., 1].copy(), slot, spec, radius[:3], shape[:3])

    def test_other_dtypes(self, rng):
        cs, padded, op, radius, shape, _, _ = _interp_case(
            rng, "2d", 1, INTERP_DTYPES[2], "none", False
        )
        self._numpy_runs(cs, padded.astype(">f8"), op, radius, shape)
        self._numpy_runs(cs.astype(np.float16), padded.astype(np.float16), op, radius, shape)


# --------------------------------------------------------------------------
# the detection compare
# --------------------------------------------------------------------------

class TestCompiledCompare:
    EPS = 2.0 ** -20  # 1 + EPS is exact, so a relative error can equal it

    def _vectors(self, rng, n):
        computed = rng.uniform(-100.0, 100.0, n)
        interpolated = computed * (1.0 + rng.normal(0.0, 1e-7, n))
        if n == 0:
            return computed, interpolated
        specials = [
            (0.0, 0.0), (0.0, 1e-3), (-0.0, 0.0), (-0.0, -2e-9),  # zero fallback
            (1.0, 1.0 + self.EPS), (-1.0, -1.0 - self.EPS),      # exactly at eps
            (1.0, 1.0 + 2 * self.EPS),                           # just above
            (np.inf, np.inf), (np.inf, 1.0), (-np.inf, 5.0), (3.0, np.inf),
            (4.0, -np.inf), (np.nan, 1.0), (2.0, np.nan),
        ]
        for c, p in specials:
            at = rng.integers(0, n)
            computed[at], interpolated[at] = c, p
        return computed, interpolated

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 4099])
    @pytest.mark.parametrize("nan", [False, True])
    def test_count_and_max_equal_numpys(self, lib, rng, n, nan):
        from repro.core.detection import relative_discrepancy

        computed, interpolated = self._vectors(rng, n)
        if not nan:
            keep = ~(np.isnan(computed) | np.isnan(interpolated))
            keep &= ~(np.isinf(computed) & np.isinf(interpolated))
            computed, interpolated = computed[keep], interpolated[keep]
        top = ctypes.c_double()
        count = lib.compare[np.dtype(np.float64).str](
            computed.ctypes.data, interpolated.ctypes.data, computed.size,
            self.EPS, ctypes.byref(top),
        )
        rel = relative_discrepancy(computed, interpolated)
        assert count == int((rel > self.EPS).sum())
        want = rel.max() if rel.size else 0.0
        assert np.isnan(top.value) == np.isnan(want)
        if not np.isnan(want):
            assert top.value == want

    @pytest.mark.parametrize("shape", [(0,), (5,), (16, 9), (12, 8, 4)])
    @pytest.mark.parametrize("flagged", [False, True])
    def test_detect_errors_equals_the_numpy_compare(self, lib, rng, shape, flagged):
        from repro.core.detection import detect_errors

        computed = rng.uniform(1.0, 100.0, shape)
        interpolated = computed * (1.0 + rng.normal(0.0, 1e-9, shape))
        if flagged and computed.size:
            interpolated.reshape(-1)[rng.integers(0, computed.size, 2)] += 1.0
        patch, spies = spy_on(lib.compare)
        with patch:
            got = detect_errors(computed, interpolated, 1e-5)
        assert _calls(spies) == 1
        with numpy_only():
            want = detect_errors(computed, interpolated, 1e-5)
        assert got.detected == want.detected == (flagged and computed.size > 0)
        np.testing.assert_array_equal(got.mismatch_indices, want.mismatch_indices)
        assert got.mismatch_indices.dtype == want.mismatch_indices.dtype
        assert got.mismatch_indices.shape == want.mismatch_indices.shape
        _assert_bitwise(got.relative_errors, want.relative_errors)
        assert got.max_relative_error == want.max_relative_error
        assert (got.threshold, got.n_checked) == (want.threshold, want.n_checked)

    def test_nan_max_flags_its_entry(self, lib):
        """No error is over epsilon, but one is NaN (a value turned NaN):
        the compiled count is 0 and its max NaN, so NumPy builds the
        result, which flags that entry."""
        from repro.core.detection import detect_errors

        computed, interpolated = np.array([1.0, np.nan, 2.0]), np.array([1.0, 1.0, 2.0])
        patch, spies = spy_on(lib.compare)
        with patch:
            got = detect_errors(computed, interpolated, 1e-5)
        assert _calls(spies) == 1
        assert got.detected and np.isnan(got.max_relative_error)
        np.testing.assert_array_equal(got.mismatch_indices, [[1]])
        assert np.isnan(got.relative_errors).all()

    def test_other_pairs_take_numpy(self, rng):
        from repro.core.detection import detect_errors

        lib = native.library()
        patch, spies = spy_on({} if lib is None else lib.compare)
        computed = rng.uniform(1.0, 2.0, (6, 4))
        with patch:
            detect_errors(computed.astype(np.float32), computed.astype(np.float32), 1e-5)
            detect_errors(computed, computed.astype(np.float32), 1e-5)
            detect_errors(computed[:, 1], computed[:, 1].copy(), 1e-5)  # strided
        assert _calls(spies) == 0


# --------------------------------------------------------------------------
# threads, fallback and the build
# --------------------------------------------------------------------------

class TestThreads:
    def test_concurrent_sweeps_and_folds_equal_serial(self, rng, monkeypatch):
        """More threads than cores, switching often, racing to build the
        same refresh plan for their step plans: every result equals the
        serial one."""
        from repro.stencil import shift

        fused = FusedBackend()
        spec = StencilSpec.seven_point_3d(0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
        shape, radius = (40, 30, 8), (1, 1, 1)
        srcs = [
            rng.random(padded_shape(shape, radius)).astype(np.float32)
            for _ in range(12)
        ]

        def work(src):
            dst = np.zeros_like(src)
            new = fused.sweep_into(
                src, dst, spec, radius, shape,
                plan=step_plan(src, dst, spec, radius, shape),
            )
            return dst, fused.checksum(new, 0, dtype=np.float64)

        serial = [work(s) for s in srcs]
        monkeypatch.setattr(shift, "_refresh_plans", shift.PlanCache(32))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                threaded = list(pool.map(work, srcs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == len(serial)
        for (a, ca), (b, cb) in zip(serial, threaded):
            np.testing.assert_array_equal(_bits(a), _bits(b))
            np.testing.assert_array_equal(_bits(ca), _bits(cb))

    def test_concurrent_steps_equal_serial(self, rng, monkeypatch):
        """Steps handing their ghost lanes to the sweep, in more threads
        than cores racing to build the same refresh plan and its fill
        values: every source halo and interior equals the serial one."""
        from repro.stencil import shift
        from repro.stencil.boundary import BoundaryCondition

        fused = FusedBackend()
        spec = StencilSpec.seven_point_3d(0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
        shape, radius = (40, 30, 8), (1, 1, 1)
        boundary = BoundaryCondition.constant(0.1)
        srcs = [
            rng.random(padded_shape(shape, radius)).astype(np.float32)
            for _ in range(12)
        ]

        def work(src):
            src, dst = src.copy(), np.zeros_like(src)
            fused.step_into(
                src, dst, step_plan(src, dst, spec, radius, shape, boundary)
            )
            return src, dst

        serial = [work(s) for s in srcs]
        monkeypatch.setattr(shift, "_refresh_plans", shift.PlanCache(32))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                threaded = list(pool.map(work, srcs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == len(serial)
        for pair, want in zip(threaded, serial):
            for a, b in zip(pair, want):
                np.testing.assert_array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("parts", [(2, 2), (3, 1)])
    def test_threads_executor_equals_serial(self, rng, parts):
        from repro.parallel.executor import SerialExecutor, ThreadPoolTileExecutor
        from repro.parallel.runner import TiledStencilRunner
        from repro.stencil.boundary import BoundaryCondition
        from repro.stencil.grid import Grid2D
        from repro.stencil.kernels import five_point_diffusion

        u0 = (rng.random((60, 48)) * 100).astype(np.float32)
        runs = []
        for executor in (SerialExecutor(), ThreadPoolTileExecutor(workers=2)):
            grid = Grid2D(u0.copy(), five_point_diffusion(0.2), BoundaryCondition.clamp())
            with executor:
                runner = TiledStencilRunner.with_online_abft(
                    grid, parts, executor=executor, epsilon=1e-5
                )
                runner.run(8)
            runs.append((grid.u.copy(), runner.total_detected()))
        np.testing.assert_array_equal(_bits(runs[0][0]), _bits(runs[1][0]))
        assert runs[0][1] == runs[1][1] == 0


class TestFallback:
    def test_forced_unavailable_fused_stays_bitwise_equal(self, rng):
        from repro.core.online import OnlineABFT
        from repro.experiments.common import make_hotspot_app

        app = make_hotspot_app((20, 18, 6))
        results = []
        for force_numpy in (False, True):
            grid = app.build_grid()
            online = OnlineABFT.for_grid(grid)
            with numpy_only() if force_numpy else contextlib.nullcontext():
                for _ in range(4):
                    online.step(grid)
            results.append(grid.u.copy())
        np.testing.assert_array_equal(_bits(results[0]), _bits(results[1]))

    def test_forced_unavailable_is_reported(self, capsys):
        import json

        from repro.cli import main

        with numpy_only():
            (entry,) = FusedBackend().compiled_kernels()
            assert entry == {
                "kind": "flat",
                "path": None,
                "compiler": None,
                "reason": "forced unavailable by a test",
                "from_disk": False,
                "build_ms": 0.0,
                "load_ms": 0.0,
            }
            assert main(["backends"]) == 0
            out = capsys.readouterr().out
            assert main(["backends", "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["fused"] == [entry]
        assert "flat kernels interpreted: forced unavailable by a test" in out

    def test_library_loads_wherever_cc_exists(self):
        """A broken build must not pass as a silent NumPy fallback."""
        if not HAVE_CC:
            pytest.skip("no `cc` on PATH: fused runs its NumPy kernels")
        assert native.library() is not None, native.unavailable_reason()
        assert native.unavailable_reason() is None


@pytest.fixture
def fresh_build(tmp_path, monkeypatch):
    """A first build into an empty cache directory; returns the cache."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_state", None)
    return tmp_path / "cache"


class TestBuild:
    def test_cache_directory(self, tmp_path, monkeypatch):
        """The env var wins; otherwise the XDG cache, else ``~/.cache``."""
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "kc"))
        assert native.default_cache_dir() == tmp_path / "kc"
        monkeypatch.delenv("REPRO_KERNEL_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert native.default_cache_dir() == tmp_path / "xdg/repro/kernels"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert native.default_cache_dir() == tmp_path / "home/.cache/repro/kernels"

    def test_no_cc_on_path(self, fresh_build, monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        assert native.library() is None
        assert native.unavailable_reason() == "no `cc` on PATH"

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_builds_then_loads_from_disk(self, fresh_build):
        lib = native.library()
        assert lib is not None and not lib.from_disk
        assert lib.path.parent == fresh_build
        assert lib.path.name == f"native_flat_{lib.digest}.so"
        assert [p.name for p in fresh_build.iterdir()] == [lib.path.name]
        native._state = None
        again = native.library()
        assert again.from_disk and again.path == lib.path

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_built_once_per_process(self, fresh_build, monkeypatch):
        """Concurrent first calls build once and share the one library."""
        builds = []
        build = native._build_and_load

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(native, "_build_and_load", counting_build)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            libs = list(pool.map(lambda _: native.library(), range(8)))
        assert libs[0] is not None, native.unavailable_reason()
        assert all(lib is libs[0] for lib in libs)
        assert native.library() is libs[0]
        assert len(builds) == 1

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_describe_times_the_build_and_the_cached_load(self, fresh_build):
        built = native.describe()
        assert built["reason"] is None and not built["from_disk"]
        assert built["build_ms"] > 0 and built["load_ms"] > 0
        assert Path(built["path"]).parent == fresh_build
        native._state = None
        cached = native.describe()
        assert cached["from_disk"] and cached["path"] == built["path"]
        assert cached["compiler"] == built["compiler"]
        # No compile this time: only the cache lookup is timed.
        assert cached["build_ms"] < built["build_ms"]
        assert cached["load_ms"] > 0

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_warmup_loads_the_library(self, fresh_build):
        """``fused``'s warmup does the build up front."""
        FusedBackend().warmup()
        assert isinstance(native._state, native.NativeLibrary)
        (entry,) = FusedBackend().compiled_kernels()
        assert entry == native.describe()
        assert entry["path"] == str(native._state.path)
        assert entry["path"].startswith(str(fresh_build))

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_compiler_error_is_named(self, fresh_build, monkeypatch):
        monkeypatch.setattr(native, "SOURCE", native.SOURCE + "\nnot C at all;\n")
        assert native.library() is None
        reason = native.unavailable_reason()
        assert reason.startswith("cc failed: ") and "error" in reason
        assert list(fresh_build.iterdir()) == []  # no partial library left

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_unwritable_cache_directory_is_named(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(blocker / "cache"))
        monkeypatch.setattr(native, "_state", None)
        assert native.library() is None
        assert native.unavailable_reason().startswith(
            f"kernel cache directory {blocker / 'cache'} is not writable"
        )

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_dlopen_error_is_named(self, fresh_build, tmp_path, monkeypatch):
        # A second cache whose library under the same name is not one.
        # (Overwriting the loaded file in place would pull it from
        # under this process's own mapping.)
        name = native.library().path.name
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / name).write_bytes(b"not a shared object")
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(broken))
        native._state = None
        assert native.library() is None
        assert native.unavailable_reason().startswith("dlopen failed: ")

    @pytest.mark.skipif(not HAVE_CC, reason="no `cc` on PATH")
    def test_two_processes_building_into_one_empty_cache(self, tmp_path):
        script = (
            "import numpy as np\n"
            "from repro.backends import FusedBackend, StepPlan, native\n"
            "from repro.stencil.boundary import BoundaryCondition\n"
            "from repro.stencil.spec import StencilSpec\n"
            "lib = native.library()\n"
            "assert lib is not None, native.unavailable_reason()\n"
            "spec = StencilSpec.from_dict({(0, 0): 0.5, (1, 0): 0.25, (0, -1): 0.25})\n"
            "src = np.arange(100, dtype=np.float32).reshape(10, 10)\n"
            "dst = np.zeros_like(src)\n"
            "plan = StepPlan(src, dst, spec, 1, (8, 8), BoundaryCondition.clamp())\n"
            "FusedBackend().sweep_into(src, dst, spec, 1, (8, 8), plan=plan)\n"
            "assert dst[1, 1] == 0.5 * 11 + 0.25 * 21 + 0.25 * 10\n"
            "print(lib.from_disk)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_KERNEL_CACHE_DIR=str(tmp_path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 1 and names[0].endswith(".so"), names
