"""Interpolation plans: bitwise equal to deriving the geometry per call.

``repro.core.interpolation`` derives the geometry of each Theorem-1
interpolation once and replays it.  The reference below is a frozen copy
of the per-call algorithm the plans replaced: it re-derives every
window, pads checksum vectors with ``pad_array`` and recomputes
``ext + delta`` for every stencil term.  The plans must reproduce it bit
for bit on every spec, boundary mix, dtype and batch layout.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.interpolation as interpolation
from repro.core.interpolation import (
    extract_delta_strips,
    interpolate_checksum_padded,
    interpolate_checksum_reduced,
    interpolation_plan,
    reduced_plan,
)
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import normalize_radius, pad_array, shifted_view
from repro.stencil.spec import StencilSpec


# --------------------------------------------------------------------------
# frozen reference: the per-call algorithm
# --------------------------------------------------------------------------

def _ref_other_axes(ndim, reduce_axis):
    return tuple(a for a in range(ndim) if a != reduce_axis)


def _ref_window_slice(ndim, reduce_axis, start, stop):
    sl = [slice(None)] * ndim
    sl[reduce_axis] = slice(start, stop)
    return tuple(sl)


def _ref_reduce_window_sum(padded, reduce_axis, start, stop, dtype=None):
    if dtype is None:
        dtype = padded.dtype
    if stop <= start:
        shape = tuple(n for a, n in enumerate(padded.shape) if a != reduce_axis)
        return np.zeros(shape, dtype=dtype)
    return padded[_ref_window_slice(padded.ndim, reduce_axis, start, stop)].sum(
        axis=reduce_axis, dtype=dtype
    )


def _ref_extended_checksum(cs_prev, padded_prev, radius, interior_shape,
                           reduce_axis, dtype=None):
    ndim = padded_prev.ndim
    other = _ref_other_axes(ndim, reduce_axis)
    r_d = radius[reduce_axis]
    n_d = int(interior_shape[reduce_axis])
    if dtype is None:
        dtype = padded_prev.dtype
    ext_shape = tuple(int(interior_shape[a]) + 2 * radius[a] for a in other)
    ext = np.empty(ext_shape, dtype=dtype)
    interior_block = tuple(
        slice(radius[a], radius[a] + int(interior_shape[a])) for a in other
    )
    ext[interior_block] = cs_prev
    window = padded_prev[_ref_window_slice(ndim, reduce_axis, r_d, r_d + n_d)]
    for pos, axis in enumerate(other):
        r_a = radius[axis]
        if r_a == 0:
            continue
        for border in (slice(0, r_a), slice(ext_shape[pos] - r_a, ext_shape[pos])):
            dst = [slice(None)] * len(other)
            dst[pos] = border
            src = [slice(None)] * ndim
            src[axis] = border
            ext[tuple(dst)] = window[tuple(src)].sum(axis=reduce_axis, dtype=dtype)
    return ext


def _ref_delta_for_offset(padded_prev, radius, interior_shape, reduce_axis,
                          offset_d, dtype=None):
    r_d = radius[reduce_axis]
    n_d = int(interior_shape[reduce_axis])
    if dtype is None:
        dtype = padded_prev.dtype
    m = abs(int(offset_d))
    if m == 0:
        shape = tuple(
            int(interior_shape[a]) + 2 * radius[a]
            for a in _ref_other_axes(padded_prev.ndim, reduce_axis)
        )
        return np.zeros(shape, dtype=dtype)
    if m > r_d:
        raise ValueError(f"offset {offset_d} exceeds ghost radius {r_d}")
    if offset_d > 0:
        gained = _ref_reduce_window_sum(
            padded_prev, reduce_axis, r_d + n_d, r_d + n_d + m, dtype=dtype
        )
        lost = _ref_reduce_window_sum(padded_prev, reduce_axis, r_d, r_d + m, dtype=dtype)
    else:
        gained = _ref_reduce_window_sum(padded_prev, reduce_axis, r_d - m, r_d, dtype=dtype)
        lost = _ref_reduce_window_sum(
            padded_prev, reduce_axis, r_d + n_d - m, r_d + n_d, dtype=dtype
        )
    return gained - lost


def _ref_other_offset(offset, reduce_axis):
    return tuple(int(o) for a, o in enumerate(offset) if a != reduce_axis)


def ref_interpolate_padded(cs_prev, padded_prev, spec, radius, interior_shape,
                           reduce_axis, constant_sum=None):
    interior_shape = tuple(int(n) for n in interior_shape)
    ndim = len(interior_shape)
    radius = normalize_radius(radius, ndim)
    other = _ref_other_axes(ndim, reduce_axis)
    other_shape = tuple(interior_shape[a] for a in other)
    radius_other = tuple(radius[a] for a in other)
    dtype = np.result_type(cs_prev.dtype, padded_prev.dtype)
    ext = _ref_extended_checksum(
        cs_prev, padded_prev, radius, interior_shape, reduce_axis, dtype=dtype
    )
    predicted = np.zeros(other_shape, dtype=dtype)
    if constant_sum is not None:
        predicted += np.asarray(constant_sum, dtype=dtype)
    delta_cache: Dict[int, np.ndarray] = {}
    for offset, weight in spec:
        o_d = int(offset[reduce_axis])
        if o_d not in delta_cache:
            delta_cache[o_d] = _ref_delta_for_offset(
                padded_prev, radius, interior_shape, reduce_axis, o_d, dtype=dtype
            )
        g = ext if o_d == 0 else ext + delta_cache[o_d]
        o_other = _ref_other_offset(offset, reduce_axis)
        contribution = shifted_view(g, o_other, radius_other, other_shape)
        predicted += np.asarray(weight, dtype=dtype) * contribution
    return predicted


def ref_extract_delta_strips(padded_prev, spec, radius, interior_shape, reduce_axis):
    interior_shape = tuple(int(n) for n in interior_shape)
    ndim = len(interior_shape)
    radius = normalize_radius(radius, ndim)
    other = _ref_other_axes(ndim, reduce_axis)
    interior_block = tuple(
        slice(radius[a], radius[a] + interior_shape[a]) for a in other
    )
    strips: Dict[int, np.ndarray] = {}
    for offset, _weight in spec:
        o_d = int(offset[reduce_axis])
        if o_d == 0 or o_d in strips:
            continue
        delta = _ref_delta_for_offset(
            padded_prev, radius, interior_shape, reduce_axis, o_d
        )
        strips[o_d] = np.ascontiguousarray(delta[interior_block])
    return strips


def _ref_reduced_boundary(boundary, reduce_axis, n_reduce, zero_constant=False):
    conditions = []
    for axis, bc in enumerate(boundary):
        if axis == reduce_axis:
            continue
        if bc.is_constant:
            if zero_constant:
                conditions.append(BoundaryCondition.zero())
            else:
                conditions.append(BoundaryCondition.constant(bc.value * n_reduce))
        else:
            conditions.append(bc)
    return BoundarySpec(tuple(conditions))


def ref_interpolate_reduced(cs_prev, spec, boundary, reduce_axis, n_reduce,
                            deltas=None, constant_sum=None):
    other = _ref_other_axes(spec.ndim, reduce_axis)
    radius = spec.radius()
    radius_other = tuple(radius[a] for a in other)
    other_shape = cs_prev.shape
    dtype = cs_prev.dtype
    cs_boundary = _ref_reduced_boundary(boundary, reduce_axis, n_reduce)
    strip_boundary = _ref_reduced_boundary(
        boundary, reduce_axis, n_reduce, zero_constant=True
    )
    cs_ext = pad_array(cs_prev, radius_other, cs_boundary)
    padded_deltas: Dict[int, np.ndarray] = {}
    if deltas:
        for o_d, strip in deltas.items():
            strip = np.asarray(strip, dtype=dtype)
            padded_deltas[int(o_d)] = pad_array(strip, radius_other, strip_boundary)
    predicted = np.zeros(other_shape, dtype=dtype)
    if constant_sum is not None:
        predicted += np.asarray(constant_sum, dtype=dtype)
    for offset, weight in spec:
        o_d = int(offset[reduce_axis])
        if o_d != 0 and o_d in padded_deltas:
            g = cs_ext + padded_deltas[o_d]
        else:
            g = cs_ext
        o_other = _ref_other_offset(offset, reduce_axis)
        contribution = shifted_view(g, o_other, radius_other, other_shape)
        predicted += np.asarray(weight, dtype=dtype) * contribution
    return predicted


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_strips_bitwise(actual: Dict, expected: Dict) -> None:
    assert list(actual) == list(expected)
    for o_d in expected:
        assert_bitwise(actual[o_d], expected[o_d])


BOUNDARIES = (
    BoundaryCondition.clamp(),
    BoundaryCondition.periodic(),
    BoundaryCondition.zero(),
    BoundaryCondition.constant(1.75),
    BoundaryCondition.constant(-0.5),
)


class Case:
    """One drawn interpolation geometry plus its step-t data."""

    def __init__(self, spec, boundary, shape, reduce_axis, dtype, cs_dtype,
                 with_constant, with_deltas, batch, seed):
        rng = np.random.default_rng(seed)
        self.reduce_axis = reduce_axis
        self.spec = spec
        self.boundary = boundary
        self.n_reduce = shape[reduce_axis]
        self.batch = batch
        if batch:
            # The stacked campaign layout: runs along a trailing axis that
            # never shifts (offset 0, ghost width 0).
            self.op = tuple((tuple(o) + (0,), w) for o, w in spec)
            self.radius = tuple(spec.radius()) + (0,)
            self.shape = tuple(shape) + (batch,)
            pad_boundary = BoundarySpec(tuple(boundary) + (BoundaryCondition.clamp(),))
        else:
            self.op = spec
            self.radius = spec.radius()
            self.shape = tuple(shape)
            pad_boundary = boundary
        u = rng.uniform(-10.0, 10.0, size=self.shape).astype(dtype)
        self.padded = pad_array(u, self.radius, pad_boundary)
        self.cs = u.sum(axis=reduce_axis, dtype=cs_dtype)
        self.constant_sum = (
            rng.uniform(-5.0, 5.0, size=self.cs.shape) if with_constant else None
        )
        self.with_deltas = with_deltas


@st.composite
def cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    radius = draw(st.integers(1, 2))
    offsets = st.tuples(*[st.integers(-radius, radius)] * ndim)
    points = draw(
        st.dictionaries(
            offsets,
            st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=7,
        )
    )
    return Case(
        spec=StencilSpec.from_dict(points),
        boundary=BoundarySpec(
            tuple(draw(st.sampled_from(BOUNDARIES)) for _ in range(ndim))
        ),
        # Extents down to 1 make periodic axes degenerate (ghost wider
        # than the extent) whenever the radius along them is 2.
        shape=tuple(draw(st.integers(1, 6)) for _ in range(ndim)),
        reduce_axis=draw(st.sampled_from([0, 1])),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        cs_dtype=draw(st.sampled_from([np.float64, None])),
        with_constant=draw(st.booleans()),
        with_deltas=draw(st.booleans()),
        batch=draw(st.sampled_from([0, 0, 1, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def run_all(case: Case) -> Tuple:
    """The three planned functions on ``case``, twice (cold, then warm)."""
    outputs = []
    for _ in range(2):
        padded = interpolate_checksum_padded(
            case.cs, case.padded, case.op, case.radius, case.shape,
            case.reduce_axis, constant_sum=case.constant_sum,
        )
        strips = extract_delta_strips(
            case.padded, case.op, case.radius, case.shape, case.reduce_axis
        )
        reduced = None
        if not case.batch:
            reduced = interpolate_checksum_reduced(
                case.cs, case.spec, case.boundary, case.reduce_axis, case.n_reduce,
                deltas=strips if case.with_deltas else None,
                constant_sum=case.constant_sum,
            )
        outputs.append((padded, strips, reduced))
    return outputs


def run_reference(case: Case) -> Tuple:
    padded = ref_interpolate_padded(
        case.cs, case.padded, case.op, case.radius, case.shape,
        case.reduce_axis, constant_sum=case.constant_sum,
    )
    strips = ref_extract_delta_strips(
        case.padded, case.op, case.radius, case.shape, case.reduce_axis
    )
    reduced = None
    if not case.batch:
        reduced = ref_interpolate_reduced(
            case.cs, case.spec, case.boundary, case.reduce_axis, case.n_reduce,
            deltas=strips if case.with_deltas else None,
            constant_sum=case.constant_sum,
        )
    return padded, strips, reduced


def assert_matches_reference(case: Case) -> None:
    ref_padded, ref_strips, ref_reduced = run_reference(case)
    for padded, strips, reduced in run_all(case):
        assert_bitwise(padded, ref_padded)
        assert_strips_bitwise(strips, ref_strips)
        if ref_reduced is not None:
            assert_bitwise(reduced, ref_reduced)


# --------------------------------------------------------------------------
# bitwise equality with the per-call algorithm
# --------------------------------------------------------------------------

@given(case=cases())
@settings(max_examples=300)
def test_plans_bitwise_equal_to_per_call_algorithm(case):
    assert_matches_reference(case)


@given(case=cases(), closed=st.booleans(), bind_buffer=st.booleans())
@settings(max_examples=100)
def test_bound_plans_bitwise_equal_to_unbound_calls(case, closed, bind_buffer):
    """A call given its :func:`interpolation_plan` or :func:`reduced_plan`
    (what a protector or a stacked batch binds once) returns the bits of
    the same call without one, the padded buffer's address bound or not,
    with the closed-border rule or the domain read."""
    boundary = None
    if closed:
        boundary = case.boundary
        if case.batch:
            boundary = BoundarySpec(tuple(boundary) + (BoundaryCondition.clamp(),))
    args = (case.op, case.radius, case.shape, case.reduce_axis)
    bound = interpolation_plan(
        *args, case.cs.dtype, case.padded.dtype, constant_sum=case.constant_sum,
        boundary=boundary, buffers=(case.padded,) if bind_buffer else (),
    )
    padded = [
        interpolate_checksum_padded(
            case.cs, case.padded, *args, constant_sum=case.constant_sum,
            boundary=boundary, plan=plan,
        )
        for plan in (bound, None)
    ]
    assert_bitwise(*padded)
    strips = extract_delta_strips(case.padded, *args)
    strip_plan = interpolation_plan(*args, case.padded.dtype, case.padded.dtype)
    assert_strips_bitwise(
        extract_delta_strips(case.padded, *args, plan=strip_plan), strips
    )
    if case.batch:
        return
    reduced = (case.cs, case.spec, case.boundary, case.reduce_axis, case.n_reduce)
    kwargs = dict(
        deltas=strips if case.with_deltas else None,
        constant_sum=case.constant_sum,
    )
    plan = reduced_plan(
        case.spec, case.boundary, case.reduce_axis, case.n_reduce,
        case.cs.shape, case.cs.dtype,
    )
    assert_bitwise(
        interpolate_checksum_reduced(*reduced, **kwargs, plan=plan),
        interpolate_checksum_reduced(*reduced, **kwargs),
    )


@pytest.mark.parametrize("reduce_axis", [0, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_degenerate_periodic_axis_matches_reference(reduce_axis, dtype):
    # Axis 2 is periodic with extent 1 under a radius-2 stencil: its
    # checksum-space ghosts are wider than the extent, so the plan pads
    # with pad_array there.
    spec = StencilSpec.from_dict(
        {(0, 0, 0): 0.5, (1, 0, -2): 0.25, (-1, 1, 2): 0.125, (0, -1, 1): 0.0625}
    )
    boundary = BoundarySpec((
        BoundaryCondition.clamp(),
        BoundaryCondition.constant(2.0),
        BoundaryCondition.periodic(),
    ))
    case = Case(spec, boundary, (5, 4, 1), reduce_axis, dtype, np.float64,
                with_constant=True, with_deltas=True, batch=0, seed=7)
    assert_matches_reference(case)


@pytest.mark.parametrize("batch", [1, 4])
def test_batch_extended_spec_matches_reference(batch):
    spec = StencilSpec.seven_point_3d(0.4, 0.1, 0.2, 0.05, 0.1, 0.1, 0.05)
    case = Case(spec, BoundarySpec.clamp(3), (6, 5, 3), 0, np.float32,
                np.float64, with_constant=True, with_deltas=False,
                batch=batch, seed=3)
    assert_matches_reference(case)


# --------------------------------------------------------------------------
# cache behaviour
# --------------------------------------------------------------------------

def _clamp_case(seed=0, shape=(7, 6, 4), dtype=np.float64):
    spec = StencilSpec.from_dict(
        {(0, 0, 0): 0.4, (1, 0, 0): 0.2, (-1, 0, 0): 0.1,
         (0, 1, 0): 0.1, (0, -1, 1): 0.1, (0, 0, -1): 0.1}
    )
    boundary = BoundarySpec((
        BoundaryCondition.clamp(),
        BoundaryCondition.constant(3.0),
        BoundaryCondition.periodic(),
    ))
    return Case(spec, boundary, shape, 0, dtype, np.float64,
                with_constant=True, with_deltas=True, batch=0, seed=seed)


def test_warm_cache_never_reaches_np_pad(monkeypatch):
    case = _clamp_case()
    expected = run_reference(case)
    run_all(case)

    def no_pad(*args, **kwargs):
        raise AssertionError("np.pad called with a warm plan cache")

    monkeypatch.setattr(np, "pad", no_pad)
    (padded, strips, reduced), _ = run_all(case)
    assert_bitwise(padded, expected[0])
    assert_strips_bitwise(strips, expected[1])
    assert_bitwise(reduced, expected[2])


def test_mutating_a_result_leaves_the_next_call_unchanged():
    case = _clamp_case(seed=1)
    expected = run_reference(case)
    (padded, strips, reduced), _ = run_all(case)
    padded[...] = np.nan
    reduced[...] = np.nan
    for strip in strips.values():
        strip[...] = np.nan
    (padded2, strips2, reduced2), _ = run_all(case)
    assert_bitwise(padded2, expected[0])
    assert_strips_bitwise(strips2, expected[1])
    assert_bitwise(reduced2, expected[2])
    # Fresh vectors per call: nothing aliases the inputs or earlier results.
    for a in (padded2, reduced2, *strips2.values()):
        for b in (padded, reduced, *strips.values(), case.cs, case.padded):
            assert not np.shares_memory(a, b)


def _in_threads(worker, n_threads=4, timeout=60.0):
    """Run ``worker(k)`` in more threads than cores, switching often."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def run(k):
        try:
            barrier.wait()
            worker(k)
        except Exception as exc:  # surfaced in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def test_threads_sharing_one_plan_reproduce_serial_results():
    cases = [_clamp_case(seed=s) for s in range(8)]
    serial = [run_reference(c) for c in cases]
    interpolation._plans.clear()
    run_all(cases[0])
    plans_before = dict(interpolation._plans)
    results = [None] * len(cases)

    def worker(k):
        for _ in range(5):
            for i in range(k, len(cases), 4):
                results[i] = run_all(cases[i])

    _in_threads(worker)
    for outputs, (ref_padded, ref_strips, ref_reduced) in zip(results, serial):
        for padded, strips, reduced in outputs:
            assert_bitwise(padded, ref_padded)
            assert_strips_bitwise(strips, ref_strips)
            assert_bitwise(reduced, ref_reduced)
    # Every thread used the plans built before the threads started.
    for key, plan in plans_before.items():
        assert interpolation._plans.get(key) is plan


def test_cache_stays_within_its_bound():
    bound = interpolation._MAX_CACHED_PLANS
    for n in range(3, 3 + bound + 5):
        run_all(_clamp_case(shape=(n, 4, 3)))
        assert 0 < len(interpolation._plans) <= bound


def test_cache_stays_within_its_bound_across_threads():
    bound = interpolation._MAX_CACHED_PLANS
    cases = [_clamp_case(shape=(n, 3, 2)) for n in range(3, 3 + bound)]
    sizes = []

    def worker(k):
        for case in cases[k::4]:
            run_all(case)
            sizes.append(len(interpolation._plans))

    _in_threads(worker)
    assert max(sizes) <= bound


# --------------------------------------------------------------------------
# input validation
# --------------------------------------------------------------------------

def test_reduced_accepts_a_single_boundary_condition(rng):
    spec = StencilSpec.from_dict({(0, 0): 0.5, (1, 0): 0.3, (0, -1): 0.2})
    cs = rng.random(7)
    by_condition = interpolate_checksum_reduced(
        cs, spec, BoundaryCondition.clamp(), 0, 9
    )
    by_spec = interpolate_checksum_reduced(cs, spec, BoundarySpec.clamp(2), 0, 9)
    assert_bitwise(by_condition, by_spec)
    by_list = interpolate_checksum_reduced(
        cs, spec, [BoundaryCondition.clamp(), BoundaryCondition.clamp()], 0, 9
    )
    assert_bitwise(by_list, by_spec)


@pytest.mark.parametrize("reduce_axis", [2, -1])
def test_out_of_range_reduce_axis_is_named(rng, reduce_axis):
    spec = StencilSpec.from_dict({(0, 0): 0.5, (1, 0): 0.3, (0, -1): 0.2})
    u = rng.random((6, 5))
    padded = pad_array(u, spec.radius(), BoundarySpec.clamp(2))
    match = f"reduce_axis {reduce_axis} out of range for 2D domain"
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ValueError, match=match):
            interpolate_checksum_padded(
                u.sum(axis=0), padded, spec, spec.radius(), u.shape, reduce_axis
            )
        with pytest.raises(ValueError, match=match):
            interpolate_checksum_reduced(
                u.sum(axis=0), spec, BoundarySpec.clamp(2), reduce_axis, 6
            )
        with pytest.raises(ValueError, match=match):
            extract_delta_strips(padded, spec, spec.radius(), u.shape, reduce_axis)


def test_offset_wider_than_the_ghosts_raises_on_every_call(rng):
    spec = StencilSpec.from_dict({(0, 0): 0.5, (2, 0): 0.5})
    u = rng.random((6, 5))
    padded = pad_array(u, 1, BoundarySpec.clamp(2))
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds ghost radius"):
            interpolate_checksum_padded(u.sum(axis=0), padded, spec, 1, u.shape, 0)
        with pytest.raises(ValueError, match="exceeds ghost radius"):
            extract_delta_strips(padded, spec, 1, u.shape, 0)


def test_shapes_are_checked_on_every_call_with_a_warm_plan(rng):
    spec = StencilSpec.from_dict({(0, 0): 0.5, (1, 0): 0.3, (0, -1): 0.2})
    bspec = BoundarySpec.clamp(2)
    u = rng.random((6, 5))
    padded = pad_array(u, spec.radius(), bspec)
    cs = u.sum(axis=0)
    strips = extract_delta_strips(padded, spec, spec.radius(), u.shape, 0)
    interpolate_checksum_padded(cs, padded, spec, spec.radius(), u.shape, 0)
    interpolate_checksum_reduced(cs, spec, bspec, 0, 6, deltas=strips)

    with pytest.raises(ValueError, match="cs_prev has shape"):
        interpolate_checksum_padded(cs[:4], padded, spec, spec.radius(), u.shape, 0)
    with pytest.raises(ValueError, match="padded_prev has shape"):
        interpolate_checksum_padded(cs, padded[:-1], spec, spec.radius(), u.shape, 0)
    with pytest.raises(ValueError, match="padded_prev has shape"):
        extract_delta_strips(padded[:, 1:], spec, spec.radius(), u.shape, 0)
    with pytest.raises(ValueError, match="delta strip for offset 1"):
        interpolate_checksum_reduced(cs, spec, bspec, 0, 6, deltas={1: np.zeros(3)})
    # An offset the spec lacks is never read, but its strip is still checked.
    with pytest.raises(ValueError, match="delta strip for offset 7"):
        interpolate_checksum_reduced(
            cs, spec, bspec, 0, 6, deltas={**strips, 7: np.zeros(4)}
        )
    with pytest.raises(ValueError, match="cs_prev has shape"):
        interpolate_checksum_reduced(u, spec, bspec, 0, 6)
