"""The step and batch contract every backend keeps, bit for bit.

A backend may override any of ``sweep_with_checksums``, ``step_into*``
and ``batch_step_into*``; whatever it overrides must come out exactly
as the interpreted sequence it replaces:

* a single step equals ``refresh_ghosts`` (over the refreshed axes
  only) followed by the ``numpy`` reference sweep — interior and the
  whole source halo, corners included — with checksums equal to a
  post-hoc reduction;
* slot ``b`` of a batched step equals a single step on slot ``b``'s
  buffers, checksum columns included.

Every registered backend is checked, plus ``base``: a backend that
provides only ``sweep_padded``, so the :class:`Backend` base-class
implementations (copy-into-destination sweep, refresh-then-sweep step,
loop-over-slots batch) are held to the same contract.  Two hypothesis
properties draw random stencils (radius <= 3, 2D and 3D), boundary-kind
mixes, external (distributed) axis subsets and degenerate periodic
halos (ghost wider than the interior).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_boundary_conditions

from repro.backends import Backend, available_backends, get_backend
from repro.core.checksums import checksum
from repro.stencil import kernels
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import (
    interior_view,
    pad_array,
    padded_shape,
    refresh_ghosts,
)
from repro.stencil.spec import StencilSpec

SHAPE_2D = (24, 18)
SHAPE_3D = (12, 10, 4)


class _BaseLoopBackend(Backend):
    """Only ``sweep_padded``: every other method is the base class's."""

    name = "base-loop-test"

    def sweep_padded(self, padded, spec, radius, interior_shape,
                     constant=None, out=None):
        return get_backend("numpy").sweep_padded(
            padded, spec, radius, interior_shape, constant=constant, out=out
        )


# Each registered backend once (``reference`` is an alias of ``numpy``).
_NAMES = sorted({get_backend(name).name for name in available_backends()})


@pytest.fixture(scope="module", params=_NAMES + ["base"])
def backend(request):
    if request.param == "base":
        return _BaseLoopBackend()
    return get_backend(request.param)


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
    return get_backend("numpy").sweep_padded(
        src, spec, radius, shape, constant=constant
    )


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
    to the reference, not merely within tolerance."""
    u = _domain(rng, shape)
    const = (rng.random(shape) * 0.1).astype(np.float32)
    radius = spec.radius()
    padded = pad_array(u, radius, bc)
    expected = get_backend("numpy").sweep_padded(
        padded, spec, radius, shape, constant=const
    )
    new, cs = get_backend("fused").sweep_with_checksums(
        padded, spec, radius, shape, (0, 1), constant=const,
        checksum_dtype=np.float64,
    )
    np.testing.assert_array_equal(new, expected)
    _assert_checksums(cs, new, (0, 1))


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
    while the refreshed axes' slabs span them as if they were interior."""
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
        src, dst, spec, radius, shape, boundary, constant=const,
        refresh_axes=refresh_axes,
    )
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(src, src_ref)

    src = src0.copy()
    dst = np.full_like(src, np.nan)
    got, cs = backend.step_into_with_checksums(
        src, dst, spec, radius, shape, boundary, (0, 1), constant=const,
        checksum_dtype=np.float64, refresh_axes=refresh_axes,
    )
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(src, src_ref)
    _assert_checksums(cs, got, (0, 1))


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
    """Each slot of a batched step — interior, refreshed source halo and
    per-run checksum columns — equals a single step on that slot."""
    radius = spec.radius()
    const = (rng.random(shape) * 0.1).astype(np.float32)
    # Random halos: on external axes they are ingested data to keep.
    singles = [_domain(rng, padded_shape(shape, radius)) for _ in range(3)]
    bsrc = np.stack(singles, axis=-1)
    bdst = np.full(bsrc.shape, np.nan, dtype=np.float32)
    if with_cs:
        got, cs = backend.batch_step_into_with_checksums(
            bsrc, bdst, spec, radius, shape, boundary, (0, 1),
            constant=const, checksum_dtype=np.float64,
            refresh_axes=refresh_axes,
        )
    else:
        got = backend.batch_step_into(
            bsrc, bdst, spec, radius, shape, boundary, constant=const,
            refresh_axes=refresh_axes,
        )
    assert got.shape == shape + (3,)
    for b, src in enumerate(singles):
        dst = np.full_like(src, np.nan)
        if with_cs:
            want, want_cs = backend.step_into_with_checksums(
                src, dst, spec, radius, shape, boundary, (0, 1),
                constant=const, checksum_dtype=np.float64,
                refresh_axes=refresh_axes,
            )
        else:
            want = backend.step_into(
                src, dst, spec, radius, shape, boundary, constant=const,
                refresh_axes=refresh_axes,
            )
        np.testing.assert_array_equal(got[..., b], want)
        np.testing.assert_array_equal(bsrc[..., b], src)
        if with_cs:
            for axis in (0, 1):
                np.testing.assert_array_equal(cs[axis][..., b], want_cs[axis])


def test_batched_aliasing_pair(rng, backend):
    """A batch stepped with ``src is dst`` still equals the batch stepped
    into a separate destination: the accumulation never reads a cell the
    step already overwrote."""
    spec = kernels.nine_point_smoothing()
    radius = spec.radius()
    u = _domain(rng, SHAPE_2D)
    src, _ = _poisoned_pair(u, radius)
    bsrc = np.stack([src, src.copy()], axis=-1)
    aliased = bsrc.copy()
    want = backend.batch_step_into(
        bsrc, np.full(bsrc.shape, np.nan, np.float32), spec, radius,
        SHAPE_2D, BoundaryCondition.clamp(),
    )
    got = backend.batch_step_into(
        aliased, aliased, spec, radius, SHAPE_2D, BoundaryCondition.clamp(),
    )
    np.testing.assert_array_equal(got, want)


def test_step_aliasing_pair(rng, backend):
    spec = kernels.nine_point_smoothing()
    radius = spec.radius()
    u = _domain(rng, (7, 6))
    expected = get_backend("numpy").sweep_padded(
        pad_array(u, radius, BoundaryCondition.clamp()), spec, radius, (7, 6)
    )
    src, _ = _poisoned_pair(u, radius)
    got = backend.step_into(
        src, src, spec, radius, (7, 6), BoundaryCondition.clamp()
    )
    np.testing.assert_array_equal(got, expected)


def test_src_shape_mismatch_raises(rng, backend):
    spec = kernels.five_point_diffusion(0.2)
    u = _domain(rng, (6, 5))
    src = pad_array(u, (2, 2), BoundaryCondition.clamp())  # too wide
    dst = np.zeros(padded_shape((6, 5), (1, 1)), dtype=np.float32)
    with pytest.raises(ValueError, match="src_padded"):
        backend.step_into(
            src, dst, spec, (1, 1), (6, 5), BoundaryCondition.clamp()
        )


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
        results.append(
            backend.step_into(
                src, dst, spec, spec.radius(), SHAPE_3D,
                BoundaryCondition.periodic(),
            ).copy()
        )
        assert backend.compiled_kernels() == report
    np.testing.assert_array_equal(results[0], results[1])


# -- random layouts ---------------------------------------------------------

_KIND_STRATEGY = st.sampled_from(("clamp", "periodic", "constant", "zero"))


def _bc(kind):
    if kind == "constant":
        return BoundaryCondition.constant(2.5)
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
    boundary = BoundarySpec.from_any(
        [_bc(draw(_KIND_STRATEGY)) for _ in range(ndim)], ndim
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
    return spec, shape, boundary, refresh_axes, has_const


@settings(max_examples=60, deadline=None)
@given(case=_cases(), seed=st.integers(0, 2**31 - 1))
def test_step_bit_identical_to_interpreted(backend, case, seed):
    """Random spec x layout: the protected step equals refresh + the
    reference sweep, interior and whole source halo bit for bit.

    The halos start as random data, standing in for ingested neighbour
    halos on the external axes.
    """
    spec, shape, boundary, refresh_axes, has_const = case
    radius = spec.radius()
    rng = np.random.default_rng(seed)
    src = rng.standard_normal(padded_shape(shape, radius)).astype(np.float32)
    const = (
        rng.standard_normal(shape).astype(np.float32) if has_const else None
    )
    src_ref = src.copy()
    expected = _reference_step(
        src_ref, spec, radius, shape, boundary, constant=const,
        refresh_axes=refresh_axes,
    )
    got, cs = backend.step_into_with_checksums(
        src, np.full_like(src, np.nan), spec, radius, shape, boundary,
        (0, 1), constant=const, checksum_dtype=np.float64,
        refresh_axes=refresh_axes,
    )
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(src, src_ref)
    _assert_checksums(cs, expected, (0, 1))


@settings(max_examples=25, deadline=None)
@given(
    case=_cases(),
    batch=st.sampled_from((1, 3, 8)),
    with_cs=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_step_bit_identical_to_single_steps(
    backend, case, batch, with_cs, seed
):
    """Random spec x layout x batch width: a batched step equals
    ``batch`` independent single steps, slot for slot.  This is what
    makes stacked-vs-replay a pure throughput choice in the campaign
    engine."""
    spec, shape, boundary, refresh_axes, has_const = case
    radius = spec.radius()
    rng = np.random.default_rng(seed)
    pshape = padded_shape(shape, radius)
    singles = [
        rng.standard_normal(pshape).astype(np.float32) for _ in range(batch)
    ]
    const = (
        rng.standard_normal(shape).astype(np.float32) if has_const else None
    )
    bsrc = np.stack(singles, axis=-1)
    bdst = np.full(bsrc.shape, np.nan, dtype=np.float32)
    if with_cs:
        got, cs = backend.batch_step_into_with_checksums(
            bsrc, bdst, spec, radius, shape, boundary, (0, 1),
            constant=const, checksum_dtype=np.float64,
            refresh_axes=refresh_axes,
        )
    else:
        got = backend.batch_step_into(
            bsrc, bdst, spec, radius, shape, boundary, constant=const,
            refresh_axes=refresh_axes,
        )
    for b, src in enumerate(singles):
        dst = np.full(pshape, np.nan, dtype=np.float32)
        if with_cs:
            want, want_cs = backend.step_into_with_checksums(
                src, dst, spec, radius, shape, boundary, (0, 1),
                constant=const, checksum_dtype=np.float64,
                refresh_axes=refresh_axes,
            )
        else:
            want = backend.step_into(
                src, dst, spec, radius, shape, boundary, constant=const,
                refresh_axes=refresh_axes,
            )
        np.testing.assert_array_equal(got[..., b], want)
        np.testing.assert_array_equal(bsrc[..., b], src)
        if with_cs:
            for axis in (0, 1):
                np.testing.assert_array_equal(cs[axis][..., b], want_cs[axis])
