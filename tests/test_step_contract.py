"""The step and batch contract the backend keeps, bit for bit.

Whatever the backend runs for ``sweep_padded``, ``step_into``,
``batch_step_into`` and ``checksum`` must come out exactly as the
interpreted sequence it replaces:

* a single step equals ``refresh_ghosts`` (over the refreshed axes
  only) followed by the reference sweep
  (:func:`~repro.stencil.reference.reference_sweep_padded`) — interior
  and the whole source halo, corners included — and the backend's
  checksum of the new interior equals a post-hoc reduction;
* slot ``b`` of a batched step equals a single step on slot ``b``'s
  buffers, and the campaign engine's ``np.sum`` over the batch interior
  equals, column for column, the backend's checksum of each single
  step.

Both compute paths are checked: compiled, and with the native library
forced unavailable (``fused-interpreted``, the NumPy code a machine
without ``cc`` runs).  So is ``base``: a backend that provides only
``sweep_padded`` (``conftest.BaseRoutes``), so the :class:`Backend`
base-class routes (copy-into-destination sweep, refresh-then-sweep
step, batched step over the run-extended pair) are held to the same
contract.  Two hypothesis properties draw random stencils
(radius <= 3, 2D and 3D), float32 and float64 domains, boundary-kind
mixes (constant values float32 cannot hold exactly included), external
(distributed) axis subsets and degenerate periodic halos (ghost wider
than the interior).

``fused``'s compiled step fills the last ghost axis's lanes inside its
sweep; the named cases at the end pin the views that must take the
NumPy fill instead.

Every step takes the pair's :class:`~repro.backends.base.StepPlan`
(``conftest.step_plan``), as a double-buffered grid, a rank and a
stacked campaign batch pass theirs every step; two more hypothesis
properties step one planned pair in both directions, single and
batched, against the oracle.  A plan refuses an overlapping pair and
any pair that is not two whole C-contiguous buffers of one dtype, and
each primitive a pair it was not built over.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COMPUTE_PATHS,
    CONTRACT_PATHS,
    all_boundary_conditions,
    on_path,
    step_plan,
)

from repro.backends import batch_arguments, get_backend, native
from repro.backends import fused as fused_module
from repro.core.checksums import checksum
from repro.stencil import kernels, shift
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.reference import reference_sweep_padded
from repro.stencil.shift import (
    interior_view,
    pad_array,
    padded_shape,
    refresh_ghosts,
    refresh_plan,
)
from repro.stencil.spec import StencilSpec

SHAPE_2D = (24, 18)
SHAPE_3D = (12, 10, 4)


def _domain(rng, shape):
    return (rng.random(shape) * 100.0).astype(np.float32)


def _poisoned_pair(u, radius):
    """(src, dst) padded pair, halos poisoned so a skipped refresh shows."""
    shape = padded_shape(u.shape, radius)
    src = np.full(shape, np.nan, dtype=u.dtype)
    interior_view(src, radius)[...] = u
    dst = np.full(shape, np.nan, dtype=u.dtype)
    return src, dst


def _reference_step(src, spec, radius, shape, boundary, constant=None,
                    refresh_axes=None):
    """Refresh ``src`` in place, then the reference sweep of it."""
    refresh_ghosts(src, radius, boundary, axes=refresh_axes)
    return reference_sweep_padded(src, spec, radius, shape, constant=constant)


def _assert_bits(got, want):
    """Equal dtype, shape and bits (signed zeros told apart)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    view = f"u{got.itemsize}"
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(view), np.ascontiguousarray(want).view(view)
    )


def _checksums(backend, interior, axes=(0, 1)):
    """The backend's float64 checksum of ``interior`` along each axis."""
    return {a: backend.checksum(interior, a, dtype=np.float64) for a in axes}


def _assert_checksums(cs, interior, axes):
    assert set(cs) == set(axes)
    for axis in axes:
        posthoc = checksum(interior, axis, dtype=np.float64)
        scale = np.maximum(np.abs(posthoc), 1.0)
        assert float(np.max(np.abs(cs[axis] - posthoc) / scale)) < 1e-10


@pytest.mark.parametrize(
    "spec,shape",
    [
        (kernels.nine_point_smoothing(), SHAPE_2D),
        (kernels.asymmetric_advection_2d(), SHAPE_2D),
        (kernels.twenty_seven_point_3d(), SHAPE_3D),
        (kernels.asymmetric_advection_3d(), SHAPE_3D),
    ],
    ids=["9pt-2d", "advect-2d", "27pt-3d", "advect-3d"],
)
@pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
def test_sweep_and_checksums_match_reference(rng, spec, shape, bc):
    """``fused``'s sweep (compiled where the native library loads) adds
    the constant first and then the points in the reference's order
    with the reference's cast weights, so its interior is bitwise equal
    to the reference, not merely within tolerance; its checksums of the
    new interior match a post-hoc reduction."""
    u = _domain(rng, shape)
    const = (rng.random(shape) * 0.1).astype(np.float32)
    radius = spec.radius()
    padded = pad_array(u, radius, bc)
    expected = reference_sweep_padded(padded, spec, radius, shape, constant=const)
    fused = get_backend()
    new = fused.sweep_padded(padded, spec, radius, shape, constant=const)
    np.testing.assert_array_equal(new, expected)
    _assert_checksums(_checksums(fused, new), new, (0, 1))


_ORDERINGS = [
    (kernels.nine_point_smoothing(), SHAPE_2D, (0,)),
    (kernels.nine_point_smoothing(), SHAPE_2D, (1,)),
    (kernels.nine_point_smoothing(), SHAPE_2D, ()),
    (kernels.twenty_seven_point_3d(), SHAPE_3D, (0, 2)),
    (kernels.twenty_seven_point_3d(), SHAPE_3D, (1,)),
    (kernels.asymmetric_advection_3d(), SHAPE_3D, (2,)),
]


@pytest.mark.parametrize(
    "spec,shape,refresh_axes", _ORDERINGS,
    ids=["2d-refresh0", "2d-refresh1", "2d-refresh-none", "3d-refresh02",
         "3d-refresh1", "3d-refresh2"],
)
def test_external_axis_orderings(rng, backend, spec, shape, refresh_axes):
    """External (distributed) axes before, after and between refreshed
    axes: their ghost slabs hold ingested halo data and stay untouched,
    while the refreshed axes' slabs span them as if they were interior.
    The backend's checksums of the stepped interior, a view into the
    destination buffer, match a post-hoc reduction."""
    radius = spec.radius()
    boundary = BoundaryCondition.clamp()
    const = (rng.random(shape) * 0.1).astype(np.float32)
    # Random halos stand in for data ingested from neighbour ranks.
    src0 = _domain(rng, padded_shape(shape, radius))
    src_ref = src0.copy()
    expected = _reference_step(
        src_ref, spec, radius, shape, boundary, constant=const,
        refresh_axes=refresh_axes,
    )

    src = src0.copy()
    dst = np.full_like(src, np.nan)
    got = backend.step_into(
        src, dst,
        step_plan(src, dst, spec, radius, shape, boundary, const, refresh_axes),
    )
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(src, src_ref)
    _assert_checksums(_checksums(backend, got), got, (0, 1))


@pytest.mark.parametrize(
    "spec,shape,boundary,refresh_axes",
    [
        (
            kernels.nine_point_smoothing(),
            SHAPE_2D,
            (BoundaryCondition.clamp(), BoundaryCondition.periodic()),
            None,
        ),
        (
            kernels.twenty_seven_point_3d(),
            SHAPE_3D,
            (
                BoundaryCondition.periodic(),
                BoundaryCondition.constant(2.5),
                BoundaryCondition.zero(),
            ),
            None,
        ),
        (
            kernels.asymmetric_advection_2d(),
            SHAPE_2D,
            (BoundaryCondition.zero(), BoundaryCondition.constant(-1.5)),
            (1,),
        ),
        (
            kernels.twenty_seven_point_3d(),
            SHAPE_3D,
            BoundaryCondition.periodic(),
            (0, 2),
        ),
    ],
    ids=["2d-clamp+periodic", "3d-mixed", "2d-external0", "3d-external1"],
)
@pytest.mark.parametrize("with_cs", [False, True], ids=["plain", "checksums"])
def test_batched_step_matches_per_slot_steps(
    rng, backend, spec, shape, boundary, refresh_axes, with_cs
):
    """Each slot of a batched step — interior and refreshed source halo —
    equals a single step on that slot; with ``checksums``, so does each
    per-run column of an ``np.sum`` over the batch interior (the
    campaign engine's reduction) against the backend's checksum of the
    single step."""
    radius = spec.radius()
    const = (rng.random(shape) * 0.1).astype(np.float32)
    # Random halos: on external axes they are ingested data to keep.
    singles = [_domain(rng, padded_shape(shape, radius)) for _ in range(3)]
    bsrc = np.stack(singles, axis=-1)
    bdst = np.full(bsrc.shape, np.nan, dtype=np.float32)
    got = backend.batch_step_into(
        bsrc, bdst,
        step_plan(bsrc, bdst, spec, radius, shape, boundary, const, refresh_axes),
    )
    assert got.shape == shape + (3,)
    for b, src in enumerate(singles):
        dst = np.full_like(src, np.nan)
        want = backend.step_into(
            src, dst,
            step_plan(src, dst, spec, radius, shape, boundary, const, refresh_axes),
        )
        np.testing.assert_array_equal(got[..., b], want)
        np.testing.assert_array_equal(bsrc[..., b], src)
        if with_cs:
            want_cs = _checksums(backend, want)
            for axis in (0, 1):
                np.testing.assert_array_equal(
                    np.sum(got, axis=axis, dtype=np.float64)[..., b],
                    want_cs[axis],
                )


def test_src_shape_mismatch_raises(rng):
    """A source laid out for another radius than its destination: the
    plan names the buffer and the layout it expected."""
    spec = kernels.five_point_diffusion(0.2)
    src = np.zeros(padded_shape((6, 5), (2, 2)), np.float32)  # too wide
    dst = np.zeros(padded_shape((6, 5), (1, 1)), dtype=np.float32)
    with pytest.raises(ValueError, match=r"front buffer has shape \(10, 9\)"):
        step_plan(src, dst, spec, (1, 1), (6, 5))
    with pytest.raises(ValueError, match=r"back buffer has shape \(8, 7\)"):
        step_plan(src, dst, spec, (2, 2), (6, 5))


_OVERLAPS = {
    # One buffer as both halves of the pair.
    "same-buffer": lambda a: (a, a),
    # Two views of one array, a row apart.
    "shifted-views": lambda a: (a[:-1], a[1:]),
    # Two batch slices sharing their runs.
    "batch-slices": lambda a: (a[..., :2], a[..., 1:3]),
}


@pytest.mark.parametrize("overlap", sorted(_OVERLAPS))
def test_step_plan_refuses_an_overlapping_pair(rng, overlap):
    """No step writes a buffer it reads: a plan over two buffers that
    share memory is refused, naming the cause."""
    spec = kernels.nine_point_smoothing()
    radius = spec.radius()
    pshape = padded_shape(SHAPE_2D, radius)
    if overlap == "shifted-views":
        pshape = (pshape[0] + 1,) + pshape[1:]
    elif overlap == "batch-slices":
        pshape += (3,)
    src, dst = _OVERLAPS[overlap](rng.standard_normal(pshape))
    with pytest.raises(ValueError, match="buffers of a step plan overlap"):
        step_plan(src, dst, spec, radius, SHAPE_2D)


@pytest.mark.parametrize("primitive", ["step_into", "batch_step_into", "sweep_into"])
def test_primitives_refuse_a_foreign_pair(rng, backend, primitive):
    """A plan serves only the buffers it was built over: each primitive
    given another pair (or one buffer of its own and a stranger)
    raises, naming the cause, before writing a cell."""
    spec = kernels.nine_point_smoothing()
    radius = spec.radius()
    pshape = padded_shape(SHAPE_2D, radius)
    if primitive == "batch_step_into":
        pshape += (3,)
    own = [rng.standard_normal(pshape).astype(np.float32) for _ in range(2)]
    plan = step_plan(*own, spec, radius, SHAPE_2D)
    strangers = [b.copy() for b in own]
    before = [b.copy() for b in own + strangers]
    call = getattr(backend, primitive)
    for src, dst in ((strangers[0], strangers[1]), (own[0], strangers[1]),
                     (strangers[0], own[1]), (own[0][...], own[1])):
        with pytest.raises(ValueError, match="not the two buffers the step plan"):
            if primitive == "sweep_into":
                call(src, dst, spec, radius, SHAPE_2D, plan=plan)
            else:
                call(src, dst, plan)
    for buffer, was in zip(own + strangers, before):
        _assert_bits(buffer, was)


@pytest.mark.parametrize("primitive", ["step_into", "batch_step_into", "sweep_into"])
def test_primitives_refuse_a_call_without_a_plan(rng, backend, primitive):
    spec = kernels.nine_point_smoothing()
    radius = spec.radius()
    src, dst = (
        rng.standard_normal(padded_shape(SHAPE_2D, radius)).astype(np.float32)
        for _ in range(2)
    )
    before = src.copy()
    with pytest.raises(ValueError, match="needs the StepPlan of its buffer pair"):
        if primitive == "sweep_into":
            backend.sweep_into(src, dst, spec, radius, SHAPE_2D)
        else:
            getattr(backend, primitive)(src, dst, None)
    _assert_bits(src, before)


def test_batched_plan_refuses_a_per_run_constant_and_a_wrong_layout(rng):
    """The run-axis extension takes one constant for every run, and the
    plan of a batched pair checks each buffer's run-extended layout: the
    shape, two whole C-contiguous buffers (the first runs of a wider
    pair are not) and one dtype."""
    spec = kernels.nine_point_smoothing()
    radius = spec.radius()
    pshape = padded_shape(SHAPE_2D, radius) + (3,)
    pair = [np.zeros(pshape, np.float32) for _ in range(2)]
    with pytest.raises(ValueError, match="the constant is per-domain"):
        step_plan(*pair, spec, radius, SHAPE_2D,
                  constant=np.zeros(SHAPE_2D + (3,), np.float32))
    with pytest.raises(ValueError, match=r"the back buffer has shape"):
        step_plan(pair[0], np.zeros(pshape[:-1] + (4,), np.float32),
                  spec, radius, SHAPE_2D)
    with pytest.raises(ValueError, match=r"the front buffer has shape"):
        step_plan(*(p[1:] for p in pair), spec, radius, SHAPE_2D)
    wider = [np.zeros(pshape[:-1] + (5,), np.float32) for _ in range(2)]
    with pytest.raises(ValueError, match="the front buffer is not C-contiguous"):
        step_plan(*(w[..., :3] for w in wider), spec, radius, SHAPE_2D)
    with pytest.raises(ValueError, match=r"differ in dtype \(float32 and float64\)"):
        step_plan(pair[0], np.zeros(pshape, np.float64), spec, radius, SHAPE_2D)


@pytest.mark.parametrize("backend", COMPUTE_PATHS, indirect=True)
def test_warmup_is_idempotent(rng, backend):
    """``warmup()`` may run any number of times, before or between steps,
    and leaves the kernel report and the results unchanged."""
    spec = kernels.seven_point_diffusion_3d(0.1)
    u = _domain(rng, SHAPE_3D)
    results = []
    for _ in range(2):
        backend.warmup()
        report = backend.compiled_kernels()
        src, dst = _poisoned_pair(u, spec.radius())
        plan = step_plan(
            src, dst, spec, spec.radius(), SHAPE_3D, BoundaryCondition.periodic()
        )
        results.append(backend.step_into(src, dst, plan).copy())
        assert backend.compiled_kernels() == report
    np.testing.assert_array_equal(results[0], results[1])


# -- random layouts ---------------------------------------------------------

_KIND_STRATEGY = st.sampled_from(("clamp", "periodic", "constant", "zero"))


def _bc(kind, value=2.5):
    if kind == "constant":
        return BoundaryCondition.constant(value)
    return getattr(BoundaryCondition, kind)()


@st.composite
def _cases(draw):
    ndim = draw(st.integers(2, 3))
    npoints = draw(st.integers(1, 5))
    offsets = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * ndim),
            min_size=npoints, max_size=npoints, unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, width=32),
            min_size=npoints, max_size=npoints,
        )
    )
    spec = StencilSpec(list(zip(offsets, weights)))
    radius = spec.radius()
    # Interior extents may be below the ghost width, so degenerate
    # periodic wraps (ghost wider than the interior) are drawn too.
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    # 0.1 has no exact float32 value: a compiled fill must store the
    # bits NumPy's cast of the scalar stores.
    boundary = BoundarySpec.from_any(
        [
            _bc(draw(_KIND_STRATEGY), draw(st.sampled_from((2.5, 0.1, -0.0))))
            for _ in range(ndim)
        ],
        ndim,
    )
    external = tuple(
        a for a in range(ndim) if draw(st.booleans()) and radius[a] > 0
    )
    refresh_axes = (
        tuple(a for a in range(ndim) if a not in external)
        if external
        else None
    )
    has_const = draw(st.booleans())
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    return spec, shape, boundary, refresh_axes, has_const, dtype


@pytest.mark.parametrize("path", CONTRACT_PATHS)
@settings(max_examples=60, deadline=None)
@given(case=_cases(), seed=st.integers(0, 2**31 - 1))
def test_step_bit_identical_to_interpreted(path, case, seed):
    """Random spec x layout: the step equals refresh + the reference
    sweep, interior and whole source halo bit for bit, and the
    backend's checksums of its interior match a post-hoc reduction.

    The halos start as random data, standing in for ingested neighbour
    halos on the external axes.
    """
    with on_path(path):
        _check_step(get_backend(), case, seed)


def _check_step(backend, case, seed):
    spec, shape, boundary, refresh_axes, has_const, dtype = case
    radius = spec.radius()
    rng = np.random.default_rng(seed)
    src = rng.standard_normal(padded_shape(shape, radius)).astype(dtype)
    const = rng.standard_normal(shape).astype(dtype) if has_const else None
    src_ref = src.copy()
    expected = _reference_step(
        src_ref, spec, radius, shape, boundary, constant=const,
        refresh_axes=refresh_axes,
    )
    dst = np.full_like(src, np.nan)
    got = backend.step_into(
        src, dst,
        step_plan(src, dst, spec, radius, shape, boundary, const, refresh_axes),
    )
    # Values, not bits: without a constant ``fused`` starts from the
    # first product, where the reference adds it to +0.0, so an all-zero
    # sum may differ in the sign of zero.  The halo is copied: bits.
    np.testing.assert_array_equal(got, expected)
    _assert_bits(src, src_ref)
    _assert_checksums(_checksums(backend, got), expected, (0, 1))


@pytest.mark.parametrize("path", CONTRACT_PATHS)
@settings(max_examples=25, deadline=None)
@given(
    case=_cases(),
    batch=st.sampled_from((1, 3, 8)),
    with_cs=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_step_bit_identical_to_single_steps(
    path, case, batch, with_cs, seed
):
    """Random spec x layout x batch width: a batched step equals
    ``batch`` independent single steps, slot for slot, and (``with_cs``)
    the engine's ``np.sum`` over the batch interior equals the backend's
    checksum of each single step.  This is what makes stacked-vs-replay
    a pure throughput choice in the campaign engine."""
    with on_path(path):
        _check_batch(get_backend(), case, batch, with_cs, seed)


def _check_batch(backend, case, batch, with_cs, seed):
    spec, shape, boundary, refresh_axes, has_const, dtype = case
    radius = spec.radius()
    rng = np.random.default_rng(seed)
    pshape = padded_shape(shape, radius)
    singles = [rng.standard_normal(pshape).astype(dtype) for _ in range(batch)]
    const = rng.standard_normal(shape).astype(dtype) if has_const else None
    bsrc = np.stack(singles, axis=-1)
    bdst = np.full(bsrc.shape, np.nan, dtype=dtype)
    got = backend.batch_step_into(
        bsrc, bdst,
        step_plan(bsrc, bdst, spec, radius, shape, boundary, const, refresh_axes),
    )
    for b, src in enumerate(singles):
        dst = np.full(pshape, np.nan, dtype=dtype)
        want = backend.step_into(
            src, dst,
            step_plan(src, dst, spec, radius, shape, boundary, const, refresh_axes),
        )
        _assert_bits(got[..., b], want)
        _assert_bits(bsrc[..., b], src)
        if with_cs:
            want_cs = _checksums(backend, want)
            for axis in (0, 1):
                _assert_bits(
                    np.sum(got, axis=axis, dtype=np.float64)[..., b],
                    want_cs[axis],
                )


# -- one planned pair, stepped both ways -------------------------------------

def _check_planned_steps(backend, step, pair, plan, case, const, refresh_axes):
    """Step ``pair`` both ways with ``plan`` against the oracle: each
    step's interior equals refresh + the reference sweep of a copy of
    its source, slot by slot; the refreshed source halo matches bit for
    bit; the destination's axis-0 ghost slabs keep their bits."""
    spec, shape, boundary = case[:3]
    radius = spec.radius()
    batched = pair[0].ndim == len(shape) + 1
    for s, d in ((0, 1), (1, 0)):
        src, dst = pair[s], pair[d]
        slots = [Ellipsis] if not batched else [
            (Ellipsis, b) for b in range(src.shape[-1])
        ]
        src_refs = [np.array(src[slot], copy=True) for slot in slots]
        expected = [
            _reference_step(
                ref, spec, radius, shape, boundary, constant=const,
                refresh_axes=refresh_axes,
            )
            for ref in src_refs
        ]
        before = [b.copy() for b in pair]
        got = step(src, dst, plan)
        assert np.shares_memory(got, dst)
        for slot, ref, want in zip(slots, src_refs, expected):
            # Values, not bits: the sign of an all-zero sum may differ
            # (see ``_check_step``).
            np.testing.assert_array_equal(got[slot], want)
            _assert_bits(src[slot], ref)
        # The ghost-overwrite rule: the axis-0 ghost slabs keep their bits.
        r0 = radius[0]
        if r0:
            for ghost in (slice(0, r0), slice(-r0, None)):
                _assert_bits(dst[ghost], before[d][ghost])


@pytest.mark.parametrize("path", CONTRACT_PATHS)
@settings(max_examples=40, deadline=None)
@given(case=_cases(), rank=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_planned_step_bit_identical_to_oracle(path, case, rank, seed):
    """Random spec x layout, on every path: a pair stepped with its plan,
    in both directions, equals the oracle (refresh + the reference
    sweep), destination interior and refreshed source alike.  ``rank``
    leaves axis 0 external, as a distributed rank's pair does."""
    spec, shape, boundary, refresh_axes, has_const, dtype = case
    radius = spec.radius()
    if rank and radius[0] > 0:
        refresh_axes = tuple(range(1, len(shape)))
    rng = np.random.default_rng(seed)
    pair = [
        rng.standard_normal(padded_shape(shape, radius)).astype(dtype)
        for _ in range(2)
    ]
    const = rng.standard_normal(shape).astype(dtype) if has_const else None
    with on_path(path):
        backend = get_backend()
        plan = step_plan(*pair, spec, radius, shape, boundary, const, refresh_axes)
        _check_planned_steps(
            backend, backend.step_into, pair, plan, case, const, refresh_axes
        )


@pytest.mark.parametrize("path", CONTRACT_PATHS)
@settings(max_examples=25, deadline=None)
@given(
    case=_cases(),
    width=st.sampled_from((1, 3)),
    seed=st.integers(0, 2**31 - 1),
)
def test_planned_batched_step_bit_identical_to_oracle(path, case, width, seed):
    """The batched step given the plan of the run-extended pair, as a
    stacked campaign batch builds it for its width, equals the oracle
    slot by slot in both directions."""
    spec, shape, boundary, refresh_axes, has_const, dtype = case
    radius = spec.radius()
    rng = np.random.default_rng(seed)
    pair = [
        rng.standard_normal(padded_shape(shape, radius) + (width,)).astype(dtype)
        for _ in range(2)
    ]
    const = rng.standard_normal(shape).astype(dtype) if has_const else None
    with on_path(path):
        backend = get_backend()
        plan = step_plan(*pair, spec, radius, shape, boundary, const, refresh_axes)
        _check_planned_steps(
            backend, backend.batch_step_into, pair, plan, case, const,
            refresh_axes,
        )


# -- the views that take the NumPy lane fill --------------------------------

_SPEC_2D = kernels.five_point_diffusion(0.2)
_SPEC_3D = kernels.seven_point_diffusion_3d(0.1)


def _step_case(backend, src, dst, spec, shape, boundary, refresh_axes=None):
    """Step ``src`` into ``dst``; returns (interior, expected interior,
    expected source) where the expectations come from a copy of ``src``."""
    radius = spec.radius()
    src_ref = np.array(src, copy=True)
    expected = _reference_step(
        src_ref, spec, radius, shape, boundary, refresh_axes=refresh_axes
    )
    got = backend.step_into(
        src, dst,
        step_plan(src, dst, spec, radius, shape, boundary, None, refresh_axes),
    )
    return got, expected, src_ref


def test_empty_interior_along_an_external_axis(rng, backend):
    """No interior rows: the sweep writes nothing, yet the ingested halo
    rows of the external axis still get their ghost lanes."""
    shape, boundary = (0, 9), BoundaryCondition.constant(0.1)
    src = rng.standard_normal(padded_shape(shape, (1, 1))).astype(np.float32)
    dst = np.full_like(src, np.nan)
    got, expected, src_ref = _step_case(
        backend, src, dst, _SPEC_2D, shape, boundary, refresh_axes=(1,)
    )
    assert got.shape == expected.shape == shape
    _assert_bits(src, src_ref)
    assert np.isnan(dst).all()


@pytest.mark.parametrize(
    "spec,shape,refresh_axes",
    [(_SPEC_2D, (6, 9), (1,)), (_SPEC_3D, (5, 4, 3), None)],
    ids=["lanes-only", "3d"],
)
def test_read_only_source_raises_and_nothing_is_written(
    rng, backend, spec, shape, refresh_axes
):
    """The refresh writes the source: a read-only one raises NumPy's
    error before any cell changes, in C as in NumPy (``lanes-only`` has
    no other axis to refresh, so the lane fill is the first write)."""
    src = rng.standard_normal(padded_shape(shape, spec.radius())).astype(np.float32)
    src.flags.writeable = False
    before = src.copy()
    dst = np.full_like(src, np.nan)
    plan = step_plan(
        src, dst, spec, spec.radius(), shape, BoundaryCondition.clamp(), None,
        refresh_axes,
    )
    with pytest.raises(ValueError, match="read-only"):
        backend.step_into(src, dst, plan)
    _assert_bits(src, before)
    assert np.isnan(dst).all()


def _compiled_calls(lanes_passed):
    """Spy on the compiled sweeps, recording whether each got lanes."""
    lib = native.library()
    table = {} if lib is None else lib.sweep

    def spy(fn):
        def call(*args):
            lanes_passed.append(args[8] is not None)
            return fn(*args)
        return call

    return mock.patch.dict(table, {key: spy(fn) for key, fn in table.items()})


def test_unaligned_source_without_compiled_lanes(rng, backend):
    """An unaligned source (the flat NumPy strip loop) leaves the lanes
    to NumPy: same bits as the reference, in the interior and the whole
    source halo."""
    shape, boundary = (5, 6, 4), BoundarySpec.clamp(3)
    pshape = padded_shape(shape, _SPEC_3D.radius())
    values = rng.standard_normal(pshape).astype(np.float32)
    raw = np.zeros(values.nbytes + 1, np.uint8)
    src = np.frombuffer(raw.data, np.float32, values.size, 1).reshape(pshape)
    assert not src.flags.aligned
    dst = np.full(pshape, np.nan, np.float32)
    src[...] = values
    lanes_passed = []
    with _compiled_calls(lanes_passed):
        got, expected, src_ref = _step_case(
            backend, src, dst, _SPEC_3D, shape, boundary
        )
    assert not any(lanes_passed)
    _assert_bits(got, expected)
    _assert_bits(src, src_ref)


@pytest.mark.parametrize(
    "case",
    ["hotspot", "rank", "batch"],
)
def test_compiled_step_leaves_the_lanes_to_the_sweep(rng, case):
    """On the compiled path a step calls ``refresh_ghosts`` once, for the
    other axes only: no op of the last ghost axis reaches
    ``fill_ghosts``, and the compiled sweep gets the lanes."""
    if native.library() is None:
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    backend = get_backend()
    boundary = BoundarySpec.from_any(
        [BoundaryCondition.constant(0.1), BoundaryCondition.periodic(),
         BoundaryCondition.clamp()][: 2 if case == "rank" else 3],
        2 if case == "rank" else 3,
    )
    spec = _SPEC_2D if case == "rank" else _SPEC_3D
    shape = (6, 9) if case == "rank" else (6, 5, 4)
    refresh_axes = (1,) if case == "rank" else None
    radius = spec.radius()
    pshape = padded_shape(shape, radius)
    if case == "batch":
        pshape += (3,)
        _, ext_radius, _, ext_boundary, _ = batch_arguments(
            spec, radius, shape, boundary, None, 3
        )
        lanes = refresh_plan(pshape, ext_radius, ext_boundary).lanes
    else:
        lanes = refresh_plan(pshape, radius, boundary, refresh_axes).lanes
    src = rng.standard_normal(pshape).astype(np.float32)
    dst = np.full_like(src, np.nan)
    plan = step_plan(src, dst, spec, radius, shape, boundary, None, refresh_axes)
    lane_ops = list(lanes.ops) + list(lanes.columns)
    refreshes, filled, lanes_passed = [], [], []
    fill_ghosts = shift.fill_ghosts

    def refresh(*args, **kwargs):
        refreshes.append(kwargs.get("axes"))
        return refresh_ghosts(*args, **kwargs)

    def fill(padded, ops):
        filled.extend(ops)
        return fill_ghosts(padded, ops)

    with mock.patch.object(fused_module, "refresh_ghosts", refresh), \
            mock.patch.object(shift, "fill_ghosts", fill), \
            _compiled_calls(lanes_passed):
        if case == "batch":
            singles = [src[..., b].copy() for b in range(3)]
            got = backend.batch_step_into(src, dst, plan)
        else:
            src_ref = src.copy()
            got = backend.step_into(src, dst, plan)
    assert refreshes == [lanes.head]
    assert lanes_passed == [True]
    assert not any(op == lane for op in filled for lane in lane_ops)
    if case == "batch":
        for b, single in enumerate(singles):
            other = np.full_like(single, np.nan)
            want = backend.step_into(
                single, other,
                step_plan(single, other, spec, radius, shape, boundary),
            )
            _assert_bits(got[..., b], want)
            _assert_bits(src[..., b], single)
    else:
        expected = _reference_step(
            src_ref, spec, radius, shape, boundary, refresh_axes=refresh_axes
        )
        _assert_bits(got, expected)
        _assert_bits(src, src_ref)


@pytest.mark.parametrize(
    "spec,shape",
    [(kernels.nine_point_smoothing(), (100, 1000)),
     (kernels.twenty_seven_point_3d(), (6, 5, 600))],
    ids=["9pt-2d", "27pt-3d"],
)
def test_lanes_filled_before_their_rows_are_read(rng, backend, spec, shape):
    """Long rows, more of them than one fill covers, and corner points
    that read the lanes of the next rows: every lane is filled before a
    block reads it (blocks end close to the filled rows here), and the
    rest after the last block."""
    boundary = BoundaryCondition.constant(0.1)
    src = rng.standard_normal(padded_shape(shape, spec.radius())).astype(np.float32)
    got, expected, src_ref = _step_case(
        backend, src, np.full_like(src, np.nan), spec, shape, boundary
    )
    _assert_bits(got, expected)
    _assert_bits(src, src_ref)
