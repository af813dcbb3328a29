"""Checksum interpolation (Theorem 1 of the paper).

The checksums of a stencil domain are *not* invariant across iterations,
so they cannot be compared directly between steps as in classical ABFT.
Theorem 1 shows that the checksum vectors at step ``t+1`` can instead be
*predicted* from the checksum vectors at step ``t`` by applying the same
stencil kernel to the 1D checksum vectors, plus boundary-correction
terms (α for the row checksum, β for the column checksum):

.. math::

    a^{(t+1)}_x = c_x + \\sum_{\\{i,j,w\\} \\in S} w \\,(a^{(t)}_{x+i} + \\alpha^{(t)}_{x+i,j})

This module provides three implementations of that prediction:

:func:`interpolate_checksum_padded`
    The **exact** form. It reads the step-``t`` ghost-padded domain, so
    the α/β terms are computed exactly for *any* boundary condition,
    *any* (possibly asymmetric) stencil, and also for tiles whose ghost
    cells carry halo data from neighbouring tiles. Complexity is
    ``O(k (n_x + n_y) r)`` extra work per step — the strip accesses of
    Theorem 1 — never a full domain pass.  Given the boundary the padded
    domain's ghosts were refreshed from, it reads still less (the
    closed-border rule below).

:func:`interpolate_checksum_reduced`
    The **checksum-only** form used by the offline protector: it needs
    only the previous checksum vector plus (optionally) the per-offset
    boundary *strip sums* recorded during the sweep
    (:func:`extract_delta_strips`). Without strips it degenerates into
    the paper's simplified Equations (8)-(9), which are exact only when
    the α/β terms cancel (periodic boundaries, or clamp boundaries with
    mirror-symmetric weights).

:func:`interpolate_checksum`
    Convenience wrapper: pads a raw domain and calls the exact form.

Interpolation plans
-------------------
Everything an interpolation does that depends only on its geometry is
derived once and kept in a bounded module-level cache (a
:class:`~repro.stencil.shift.PlanCache` of ``_MAX_CACHED_PLANS``
entries, reset when full):

* a **domain plan**, keyed on (spec, radius, interior shape, reduce
  axis, dtype, boundary), serves :func:`interpolate_checksum_padded` and
  :func:`extract_delta_strips`. It holds the index pairs that sum the
  ghost border of the extended checksum out of the padded domain (or
  the ghost-fill ops that rebuild it from the checksum, by the
  closed-border rule), the gained/lost strip windows of every distinct
  reduce-axis offset, and one term per stencil point: its reduce-axis
  offset, the shifted window of the extended vector it reads and its
  weight cast to the dtype.  For the column checksum (reduce axis 0) it
  also holds the same geometry as flat runs and the compiled call's
  arguments (below);
* a **checksum plan**, keyed on the same plus the boundary and
  ``n_reduce``, serves :func:`interpolate_checksum_reduced`. Instead of
  border sums it holds the ghost-fill slab ops
  (:func:`~repro.stencil.shift.ghost_fill_ops`) that pad the checksum
  and the α/β strips in checksum space; a degenerate periodic axis
  (ghost wider than the extent) pads with
  :func:`~repro.stencil.shift.pad_array` instead, as
  :func:`~repro.stencil.shift.refresh_ghosts` does.

A call validates its arguments, looks up its plan and replays it: the
same reductions, ``zeros`` then ``+= constant_sum``, one ``ext + delta``
per distinct offset and ``multiply(w, view)`` then ``add`` per term, with
the same operands in the same order as deriving everything afresh, so
the results are bitwise identical.  A caller that makes the same call
every step binds it once instead and passes ``plan=``:
:func:`interpolation_plan` (the domain plan, the promoted dtype, the
constant sum cast and broadcast, the addresses of a buffer pair) for
the two domain-reading functions, :func:`reduced_plan` for the
checksum-space one.  The offline protector binds its strips and its
replay, a stacked campaign batch its interpolation. Geometry errors (an out-of-range
``reduce_axis``, an offset wider than the ghosts) are raised when a plan
is built; shape errors are checked on every call. Plans are immutable
and every call allocates its own checksum-sized buffers, so threads can
share a plan and returned vectors never alias.

The compiled strips and terms
-----------------------------
A column checksum (reduce axis 0) of an aligned C-contiguous padded
domain, for a (domain, checksum) dtype pair of float32/float64,
float32/float32 or float64/float64, takes one compiled call
(``interp_*`` of :mod:`repro.backends.native`) once NumPy has built the
extended checksum (block copy, border sums or closed fill ops).  The
domain's x-planes are laid out as the extended checksum, so each
distinct offset's delta is the sum of its gained planes minus the sum
of its lost planes, each added in order of x from ``+0.0`` as NumPy's
axis-0 ``sum`` adds, and ``ext + delta`` follows; each checksum entry
is ``0 + c`` (or ``0``), then ``+ w * window`` per stencil point in
spec order, over the checksum's contiguous runs.  That is
:func:`_strip_deltas`, :func:`_predicted` and :func:`_accumulate`
operation for operation, so the result is bitwise equal (built without
FMA contraction).  The call's extended checksum, shifted vectors and
result share one buffer, and the returned checksum is a view of it.
The NumPy code runs everywhere else: without the library, for other
dtypes, the row checksum, and strided views (tiles, a campaign slot).

The closed-border rule
----------------------
The extended checksum's ghost border is a sum, over the reduce axis, of
the padded domain's ghost slabs.  Without a boundary every one of them
is read from the domain: tiles and ranks carry halo data there, and
pass none.  A caller that owns its buffer pair and refreshed every
ghost from its boundary after the last write to its interior passes
that boundary: an online grid's step passes its grid's, and a stacked
campaign batch the pair's (its run axis has ghost width 0 and adds no
fill op).  Then, when every axis
other than the reduce axis is clamp, periodic with ghost <= extent or a
zero fill, each of those slabs is a copy of interior slabs (or zeros),
filled by :func:`~repro.stencil.shift.ghost_fill_ops`.  Its sum is then
the same copy of checksum entries, so the plan applies the same ops to
the extended checksum and reads no border from the domain.  Both forms
add each lane over the reduce axis in order, except where the domain
read collapses a border slab one lane wide to a 1-D sum, which NumPy
adds pairwise; there they can differ by a few ULP.  Float64 sums of
float32 data in a moderate range are exact, so float32 domains with
float64 checksums agree bit for bit.  The rule is all or nothing: a
non-zero constant fill on any other axis sends every border back to the
domain, since that axis's slabs own their ghost corners with the closed
axes.

Index conventions
-----------------
The paper sums ``y = 0..ny`` inclusive; this implementation uses the
conventional half-open domain ``0..ny-1`` of shape ``(nx, ny)`` and the
α/β formulas are adapted accordingly. ``reduce_axis`` selects which
checksum is being interpolated: ``1`` (sum over y) for the row checksum
``a``, ``0`` (sum over x) for the column checksum ``b``. For 3D domains
``(nx, ny, nz)`` the remaining axes include the layer axis z, so a single
call interpolates the checksums of *all* layers at once while remaining
mathematically identical to the per-layer scheme of the paper.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.backends import native
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import (
    GhostFillOp,
    PlanCache,
    fill_ghosts,
    ghost_fill_ops,
    normalize_radius,
    pad_array,
)
from repro.stencil.spec import BatchOperator, StencilSpec, spec_key as _spec_key

__all__ = [
    "interpolate_checksum",
    "interpolate_checksum_padded",
    "interpolate_checksum_reduced",
    "extract_delta_strips",
    "interpolation_plan",
    "reduced_plan",
    "InterpolationPlan",
    "reduced_boundary",
]


# ---------------------------------------------------------------------------
# interpolation plans
# ---------------------------------------------------------------------------

#: Plans cached before the cache is reset.
_MAX_CACHED_PLANS = 32

_plans = PlanCache(_MAX_CACHED_PLANS)

Index = Tuple[slice, ...]
#: ``(o_d, window, weight)``: the stencil point's reduce-axis offset, its
#: shifted window of the extended vector and its weight in the dtype.
Term = Tuple[int, Index, np.ndarray]


class _Compiled(NamedTuple):
    """The compiled strips and terms of a domain plan (reduce axis 0).

    The padded domain's x-planes are laid out as the extended checksum,
    so a strip's gained and lost windows are runs of whole planes, and a
    term's window is its extended vector displaced by a flat offset.  A
    call's one work buffer holds the extended checksum, one shifted
    vector per strip and the predicted checksum, in that order.
    """

    #: Elements of one x-plane (the extended checksum), the offset of the
    #: predicted checksum in the work buffer and the buffer's size.
    plane: int
    out: int
    size: int
    #: ``(first gained plane, count, first lost plane, count)`` per strip.
    strips: np.ndarray
    #: Flat offset in the extended checksum of each contiguous run of the
    #: checksum (the trailing axes without ghosts merge into one run).
    starts: np.ndarray
    #: ``(strip index or -1 for the extended vector, flat offset)`` per term.
    terms: np.ndarray
    weights: np.ndarray
    #: The kernel's ``plane, nstrip, strips, nrun, run, starts, nterm,
    #: terms, wts`` arguments, with the addresses of the arrays above,
    #: which the plan keeps alive, read once.
    args: Tuple[int, ...]


class _DomainPlan(NamedTuple):
    """Geometry of an interpolation that reads the padded domain."""

    reduce_axis: int
    padded_shape: Tuple[int, ...]
    other_shape: Tuple[int, ...]
    ext_shape: Tuple[int, ...]
    #: Interior block of the extended checksum (also the strip window).
    block: Index
    #: ``(ext index, padded index)``: ghost rows of the extended checksum,
    #: each the sum of a padded border slab over the reduce axis.
    borders: Tuple[Tuple[Index, Index], ...]
    #: Ghost-fill ops rebuilding the closed axes' ghost rows of the
    #: extended checksum from its block, applied after ``borders``;
    #: empty when every border is read from the domain.
    closed: Tuple[GhostFillOp, ...]
    #: ``(o_d, gained, lost)`` padded windows per distinct offset ``o_d != 0``.
    strips: Tuple[Tuple[int, Index, Index], ...]
    terms: Tuple[Term, ...]
    #: The compiled call's geometry, or ``None`` (a reduce axis other
    #: than 0, or a 1-D domain).
    compiled: Optional[_Compiled]


class _ChecksumPlan(NamedTuple):
    """Geometry of an interpolation in checksum space only."""

    #: The checksum's dtype, which the weights are cast to.
    dtype: np.dtype
    other_shape: Tuple[int, ...]
    ext_shape: Tuple[int, ...]
    block: Index
    radius: Tuple[int, ...]
    #: ``(boundary, ghost-fill ops)`` padding the checksum and the α/β
    #: strips; the ops are ``None`` on a degenerate periodic axis.
    cs_pad: Tuple[BoundarySpec, Optional[tuple]]
    strip_pad: Tuple[BoundarySpec, Optional[tuple]]
    #: Reduce-axis offsets ``o_d != 0`` whose strips the terms read.
    shifts: frozenset
    terms: Tuple[Term, ...]


def _other_axes(ndim: int, reduce_axis: int) -> Tuple[int, ...]:
    return tuple(a for a in range(ndim) if a != reduce_axis)


def _check_reduce_axis(reduce_axis: int, ndim: int) -> None:
    if reduce_axis < 0 or reduce_axis >= ndim:
        raise ValueError(f"reduce_axis {reduce_axis} out of range for {ndim}D domain")


def _window(ndim: int, reduce_axis: int, start: int, stop: int) -> Index:
    """Index selecting ``[start, stop)`` along ``reduce_axis`` and everything else."""
    sl = [slice(None)] * ndim
    sl[reduce_axis] = slice(start, stop)
    return tuple(sl)


def _terms(spec, reduce_axis: int, radius, other_shape, dtype) -> Tuple[Term, ...]:
    """One :data:`Term` per stencil point, in the spec's order.

    ``radius`` and ``other_shape`` are the ghost widths and interior
    extents of the non-reduced axes, i.e. of the extended vector.
    """
    ndim = len(other_shape) + 1
    other = _other_axes(ndim, reduce_axis)
    terms = []
    for offset, weight in spec:
        if len(offset) != ndim:
            raise ValueError(
                f"stencil offset {tuple(offset)} has {len(offset)} components, "
                f"domain is {ndim}D"
            )
        window = []
        for pos, axis in enumerate(other):
            o, r = int(offset[axis]), radius[pos]
            if abs(o) > r:
                raise ValueError(
                    f"offset {o} exceeds ghost radius {r} along axis {pos}"
                )
            window.append(slice(r + o, r + o + other_shape[pos]))
        w = np.asarray(weight, dtype=dtype)
        w.flags.writeable = False
        terms.append((int(offset[reduce_axis]), tuple(window), w))
    return tuple(terms)


def _closed_ops(boundary: BoundarySpec, radius, reduce_axis: int, ext_shape):
    """Ops rebuilding the extended checksum's ghost border, or ``None``.

    ``None`` when the closed-border rule (module docstring) sends every
    border to the domain: a non-zero constant fill on an axis other than
    ``reduce_axis``, or a degenerate periodic axis.
    """
    other = _other_axes(boundary.ndim, reduce_axis)
    conditions = tuple(boundary.axis(a) for a in other)
    if any(bc.fill_value() != 0.0 for bc in conditions):
        return None
    return ghost_fill_ops(
        ext_shape, tuple(radius[a] for a in other), BoundarySpec(conditions)
    )


def _build_domain_plan(
    spec, radius, interior_shape, reduce_axis, dtype, boundary
) -> _DomainPlan:
    ndim = len(interior_shape)
    radius = normalize_radius(radius, ndim)
    _check_reduce_axis(reduce_axis, ndim)
    other = _other_axes(ndim, reduce_axis)
    r_d, n_d = radius[reduce_axis], interior_shape[reduce_axis]
    radius_other = tuple(radius[a] for a in other)
    other_shape = tuple(interior_shape[a] for a in other)
    ext_shape = tuple(n + 2 * r for n, r in zip(other_shape, radius_other))
    closed = None
    if boundary is not None:
        if boundary.ndim != ndim:
            raise ValueError(
                f"boundary has {boundary.ndim} axes, the padded domain "
                f"has {ndim}"
            )
        closed = _closed_ops(boundary, radius, reduce_axis, ext_shape)

    # The extended checksum's ghost border is summed over the interior
    # window of the reduce axis, unless the closed-border rule rebuilds
    # it from the checksum; the interior block is the checksum itself.
    interior = _window(ndim, reduce_axis, r_d, r_d + n_d)
    borders = []
    for pos, axis in enumerate(other):
        r_a = radius[axis]
        if r_a == 0 or closed is not None:
            continue
        for border in (slice(0, r_a), slice(ext_shape[pos] - r_a, ext_shape[pos])):
            dst = [slice(None)] * len(other)
            dst[pos] = border
            src = list(interior)
            src[axis] = border
            borders.append((tuple(dst), tuple(src)))

    terms = _terms(spec, reduce_axis, radius_other, other_shape, dtype)
    strips: Dict[int, Tuple[Index, Index]] = {}
    for o_d, _, _ in terms:
        m = abs(o_d)
        if m == 0 or o_d in strips:
            continue
        if m > r_d:
            raise ValueError(
                f"offset {o_d} exceeds ghost radius {r_d} along the reduced axis"
            )
        if o_d > 0:
            # window [m, n_d + m): gains the m ghost columns just above the
            # interior, loses the first m interior columns.
            strips[o_d] = (
                _window(ndim, reduce_axis, r_d + n_d, r_d + n_d + m),
                _window(ndim, reduce_axis, r_d, r_d + m),
            )
        else:
            # window [-m, n_d - m): gains the m ghost columns just below the
            # interior, loses the last m interior columns.
            strips[o_d] = (
                _window(ndim, reduce_axis, r_d - m, r_d),
                _window(ndim, reduce_axis, r_d + n_d - m, r_d + n_d),
            )

    strips = tuple((o_d, gained, lost) for o_d, (gained, lost) in strips.items())
    compiled = None
    if reduce_axis == 0 and ndim > 1:
        compiled = _compiled(strips, terms, radius_other, other_shape, ext_shape, dtype)
    return _DomainPlan(
        reduce_axis=reduce_axis,
        padded_shape=tuple(n + 2 * r for n, r in zip(interior_shape, radius)),
        other_shape=other_shape,
        ext_shape=ext_shape,
        block=tuple(slice(r, r + n) for n, r in zip(other_shape, radius_other)),
        borders=tuple(borders),
        closed=() if closed is None else closed,
        strips=strips,
        terms=terms,
        compiled=compiled,
    )


def _compiled(strips, terms, radius_other, other_shape, ext_shape, dtype) -> _Compiled:
    """The geometry of :func:`_strip_deltas` and :func:`_accumulate` as flat runs."""
    ndim = len(ext_shape)
    stride = [1] * ndim
    for a in range(ndim - 2, -1, -1):
        stride[a] = stride[a + 1] * ext_shape[a + 1]
    plane = stride[0] * ext_shape[0]
    # A run of the checksum spans its trailing axes of ghost width 0,
    # where the block covers the extended range, and the axis before them.
    inner = ndim - 1
    while inner > 0 and radius_other[inner] == 0:
        inner -= 1
    run = int(np.prod(other_shape[inner:]))
    starts = np.array([sum(r * s for r, s in zip(radius_other, stride))], np.intp)
    for a in range(inner):
        steps = np.arange(other_shape[a], dtype=np.intp) * stride[a]
        starts = (starts[:, None] + steps).reshape(-1)
    windows = np.array(
        [(g[0].start, g[0].stop - g[0].start, lo[0].start, lo[0].stop - lo[0].start)
         for _, g, lo in strips],
        dtype=np.intp,
    ).reshape(-1, 4)
    source = {o_d: k for k, (o_d, _, _) in enumerate(strips)}
    flat = np.array(
        [(source.get(o_d, -1),
          sum((w.start - r) * s for w, r, s in zip(window, radius_other, stride)))
         for o_d, window, _ in terms],
        dtype=np.intp,
    ).reshape(-1, 2)
    weights = np.array([w for _, _, w in terms], dtype=dtype)
    args = (
        plane, len(windows), windows.ctypes.data, len(starts), run,
        starts.ctypes.data, len(flat), flat.ctypes.data, weights.ctypes.data,
    )
    out = (1 + len(windows)) * plane
    size = out + int(np.prod(other_shape))
    return _Compiled(plane, out, size, windows, starts, flat, weights, args)


def _cached_domain_plan(
    spec, radius, interior_shape, reduce_axis, dtype, boundary
) -> _DomainPlan:
    interior_shape = tuple(int(n) for n in interior_shape)
    if not isinstance(radius, tuple):
        radius = normalize_radius(radius, len(interior_shape))
    spec_key = _spec_key(spec)
    if not isinstance(spec, (StencilSpec, BatchOperator)):
        spec = spec_key[0]
    key = ("domain", spec_key, radius, interior_shape, reduce_axis, dtype, boundary)
    return _plans.get_or_build(
        key, _build_domain_plan, spec, radius, interior_shape, reduce_axis,
        dtype, boundary,
    )


def _domain_plan(
    spec, radius, interior_shape, reduce_axis, padded_prev, dtype, boundary=None
):
    """The cached domain plan, after checking ``padded_prev`` against it."""
    plan = _cached_domain_plan(
        spec, radius, interior_shape, reduce_axis, dtype, boundary
    )
    if padded_prev.shape != plan.padded_shape:
        raise ValueError(
            f"padded_prev has shape {padded_prev.shape}, expected "
            f"{plan.padded_shape} (domain {interior_shape}, radius {radius})"
        )
    return plan


class InterpolationPlan(NamedTuple):
    """An interpolation that reads the padded domain, bound once.

    Built by :func:`interpolation_plan` from the arguments of
    :func:`interpolate_checksum_padded` (or :func:`extract_delta_strips`)
    other than the two arrays, for a caller that makes the same call
    every step: a protector, or a stacked campaign batch.  Given as
    ``plan=``, it replaces the per-call plan lookup, the dtype
    promotion, the cast and broadcast of the constant sum and, for the
    padded buffers it was bound to, the read of their address.
    """

    domain: _DomainPlan
    #: The dtypes of ``cs_prev`` and ``padded_prev`` it serves, and the
    #: checksum dtype they promote to.
    cs_dtype: np.dtype
    padded_dtype: np.dtype
    dtype: np.dtype
    #: ``constant_sum`` cast to ``dtype`` and broadcast to the checksum's
    #: shape (a contiguous copy), or ``None``.
    constant_sum: Optional[np.ndarray]
    #: Padded buffers the calls read, kept alive, and their addresses.
    buffers: Tuple[np.ndarray, ...]
    addresses: Tuple[int, ...]

    def fits(self, cs_prev: np.ndarray, padded_prev: np.ndarray) -> bool:
        """Whether a call with these arrays is the one this plan binds."""
        return (
            padded_prev.shape == self.domain.padded_shape
            and cs_prev.shape == self.domain.other_shape
            and cs_prev.dtype == self.cs_dtype
            and padded_prev.dtype == self.padded_dtype
        )

    def address(self, padded_prev: np.ndarray) -> int:
        """Where ``padded_prev`` starts (read once for a bound buffer)."""
        for buffer, address in zip(self.buffers, self.addresses):
            if padded_prev is buffer:
                return address
        return padded_prev.ctypes.data


def interpolation_plan(
    spec,
    radius,
    interior_shape: Sequence[int],
    reduce_axis: int,
    cs_dtype,
    padded_dtype,
    constant_sum: Optional[np.ndarray] = None,
    boundary: Optional[BoundarySpec] = None,
    buffers: Sequence[np.ndarray] = (),
) -> InterpolationPlan:
    """Bind :func:`interpolate_checksum_padded` of one layout once.

    The arguments are those of the calls it will serve (see
    :func:`interpolate_checksum_padded`), with the dtypes of their
    ``cs_prev`` and ``padded_prev`` in place of the arrays, and the
    padded ``buffers`` they will read (a buffer pair), whose addresses
    are read here.  :func:`extract_delta_strips` takes the same plan,
    bound with ``cs_dtype=padded_dtype`` and no constant or boundary.
    The domain plan comes from the module's cache and is kept, so
    clearing the cache frees nothing the plan hands to compiled code.
    """
    cs_dtype, padded_dtype = np.dtype(cs_dtype), np.dtype(padded_dtype)
    dtype = np.result_type(cs_dtype, padded_dtype)
    domain = _cached_domain_plan(
        spec, radius, interior_shape, reduce_axis, dtype, boundary
    )
    if constant_sum is not None:
        constant_sum = np.array(
            np.broadcast_to(np.asarray(constant_sum, dtype=dtype), domain.other_shape)
        )
    buffers = tuple(buffers)
    return InterpolationPlan(
        domain, cs_dtype, padded_dtype, dtype, constant_sum, buffers,
        tuple(b.ctypes.data for b in buffers),
    )


def _strip_deltas(plan: _DomainPlan, padded_prev: np.ndarray, dtype):
    """Yield ``(o_d, delta)``: the α/β correction of each distinct offset.

    ``delta`` is ``G_{o_d} - a_ext``, the window sum shifted by ``o_d``
    along the reduced axis minus the unshifted one, over the extended
    range of the other axes; only ``|o_d|`` boundary strips are summed.
    """
    axis = plan.reduce_axis
    for o_d, gained, lost in plan.strips:
        delta = padded_prev[gained].sum(axis=axis, dtype=dtype)
        np.subtract(delta, padded_prev[lost].sum(axis=axis, dtype=dtype), out=delta)
        yield o_d, delta


def _accumulate(
    predicted: np.ndarray, terms: Tuple[Term, ...], shifted: Dict[int, np.ndarray],
    base: np.ndarray,
) -> np.ndarray:
    """``predicted += w * window`` for every term, in the spec's order.

    A term reads ``shifted[o_d]`` (the extended vector plus its α/β
    correction) when present, else ``base`` (the extended vector).
    """
    scratch = np.empty_like(predicted)
    for o_d, window, weight in terms:
        np.multiply(weight, shifted.get(o_d, base)[window], out=scratch)
        predicted += scratch
    return predicted


def _kernel(plan: _DomainPlan, padded_prev: np.ndarray, dtype):
    """The compiled strips and terms for this call, or ``None``.

    They run on an aligned C-contiguous padded domain reduced over axis
    0, for the (domain, checksum) dtype pairs the library folds.
    """
    if plan.compiled is None or not (
        padded_prev.flags.c_contiguous and padded_prev.flags.aligned
    ):
        return None
    lib = native.library()
    if lib is None:
        return None
    return lib.interp.get((padded_prev.dtype.str, dtype.str))


def _predicted(shape, dtype, constant_sum) -> np.ndarray:
    predicted = np.zeros(shape, dtype=dtype)
    if constant_sum is not None:
        predicted += np.asarray(constant_sum, dtype=dtype)
    return predicted


# ---------------------------------------------------------------------------
# exact interpolation from the padded previous domain
# ---------------------------------------------------------------------------

def interpolate_checksum_padded(
    cs_prev: np.ndarray,
    padded_prev: np.ndarray,
    spec: StencilSpec,
    radius,
    interior_shape: Sequence[int],
    reduce_axis: int,
    constant_sum: Optional[np.ndarray] = None,
    boundary: Optional[BoundarySpec] = None,
    plan: Optional[InterpolationPlan] = None,
) -> np.ndarray:
    """Exact Theorem-1 interpolation of a checksum.

    Parameters
    ----------
    cs_prev:
        Checksum of the step-``t`` domain along ``reduce_axis``
        (assumed correct; the ABFT inductive hypothesis).
    padded_prev:
        Ghost-padded step-``t`` domain — the same array the sweep read.
        Only thin boundary strips of it are accessed.
    spec:
        The stencil operator (or any iterable of ``(offset, weight)``
        pairs).
    radius:
        Ghost width of ``padded_prev``.
    interior_shape:
        Shape of the interior domain.
    reduce_axis:
        Axis summed over by this checksum (0 → column checksum ``b``,
        1 → row checksum ``a``).
    constant_sum:
        Pre-computed checksum of the constant term ``C`` along
        ``reduce_axis`` (the ``c_x`` / ``c_y`` of Theorem 1), or ``None``.
    boundary:
        The :class:`~repro.stencil.boundary.BoundarySpec` every ghost of
        ``padded_prev`` was refreshed from, by a caller that refreshed
        them after the last write to its interior.  ``None`` (the
        default) treats every ghost as possible halo data and sums each
        border from the domain.  With a boundary, when every axis other
        than ``reduce_axis`` is clamp, periodic with ghost <= extent or a
        zero fill, the border sums are rebuilt from ``cs_prev`` by the
        ghost-fill ops :func:`~repro.stencil.shift.refresh_ghosts`
        applies; otherwise every border is read from the domain (module
        docstring, "The closed-border rule").  A boundary whose axis
        count differs from the domain's raises ``ValueError``.
    plan:
        The :func:`interpolation_plan` of the other arguments, for a
        caller that makes this call every step.  It serves the calls
        whose arrays have the shapes and dtypes it was bound for; any
        other call runs as without one.

    Returns
    -------
    numpy.ndarray
        The predicted step-``t+1`` checksum; same shape as ``cs_prev``.
        A column checksum of an aligned C-contiguous ``padded_prev``
        takes the compiled strips and terms, bitwise equal to the NumPy
        code (module docstring).
    """
    if plan is not None and plan.fits(cs_prev, padded_prev):
        dtype, constant_sum, bound = plan.dtype, plan.constant_sum, plan
        plan = plan.domain
    else:
        dtype = np.result_type(cs_prev.dtype, padded_prev.dtype)
        plan = _domain_plan(
            spec, radius, interior_shape, reduce_axis, padded_prev, dtype, boundary
        )
        bound = None
        if cs_prev.shape != plan.other_shape:
            raise ValueError(
                f"cs_prev has shape {cs_prev.shape}, expected {plan.other_shape} "
                f"(domain {tuple(interior_shape)}, reduce_axis {reduce_axis})"
            )

    # Checksum over the ghost-extended range of the non-reduced axes. The
    # interior block is taken verbatim from ``cs_prev`` (already verified
    # correct at step t, the ABFT inductive assumption); only the thin
    # ghost border is summed from the padded domain, keeping the extra
    # cost proportional to the boundary surface, not the domain volume.
    kernel = _kernel(plan, padded_prev, dtype)
    if kernel is None:
        ext = np.empty(plan.ext_shape, dtype=dtype)
    else:
        # One buffer for the call's extended checksum, shifted vectors
        # and result; the kernel derives their addresses from its start.
        work = np.empty(plan.compiled.size, dtype=dtype)
        ext = work[:plan.compiled.plane].reshape(plan.ext_shape)
    ext[plan.block] = cs_prev
    for dst, src in plan.borders:
        ext[dst] = padded_prev[src].sum(axis=plan.reduce_axis, dtype=dtype)
    fill_ghosts(ext, plan.closed)

    if kernel is not None:
        predicted = work[plan.compiled.out:].reshape(plan.other_shape)
        if constant_sum is not None:
            predicted[...] = np.asarray(constant_sum, dtype=dtype)
        kernel(
            padded_prev.ctypes.data if bound is None else bound.address(padded_prev),
            work.ctypes.data, constant_sum is not None, *plan.compiled.args,
        )
        return predicted

    predicted = _predicted(plan.other_shape, dtype, constant_sum)
    shifted = {
        o_d: np.add(ext, delta, out=delta)
        for o_d, delta in _strip_deltas(plan, padded_prev, dtype)
    }
    return _accumulate(predicted, plan.terms, shifted, ext)


def interpolate_checksum(
    cs_prev: np.ndarray,
    u_prev: np.ndarray,
    spec: StencilSpec,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    reduce_axis: int,
    constant: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact Theorem-1 interpolation from a raw (unpadded) previous domain."""
    radius = spec.radius()
    padded = pad_array(u_prev, radius, boundary)
    constant_sum = None
    if constant is not None:
        constant_sum = np.asarray(constant).sum(axis=reduce_axis)
    return interpolate_checksum_padded(
        cs_prev, padded, spec, radius, u_prev.shape, reduce_axis, constant_sum
    )


# ---------------------------------------------------------------------------
# strip extraction + checksum-only interpolation (offline / simplified)
# ---------------------------------------------------------------------------

def extract_delta_strips(
    padded_prev: np.ndarray,
    spec: StencilSpec,
    radius,
    interior_shape: Sequence[int],
    reduce_axis: int,
    plan: Optional[InterpolationPlan] = None,
) -> Dict[int, np.ndarray]:
    """Record the per-offset boundary strip sums of a step.

    The returned dictionary maps each distinct reduce-axis offset
    ``o_d != 0`` appearing in the stencil to its α/β correction vector
    over the *interior* range of the other axes. The offline protector
    stores one such dictionary per sweep (a few KiB) so that it can
    replay the exact interpolation over a whole detection period without
    keeping the intermediate domains alive.

    ``plan`` is an :func:`interpolation_plan` of the other arguments;
    it serves a ``padded_prev`` of the shape it was bound for.
    """
    dtype = padded_prev.dtype
    if plan is not None and padded_prev.shape == plan.domain.padded_shape:
        plan = plan.domain
    else:
        plan = _domain_plan(
            spec, radius, interior_shape, reduce_axis, padded_prev, dtype
        )
    return {
        o_d: np.ascontiguousarray(delta[plan.block])
        for o_d, delta in _strip_deltas(plan, padded_prev, dtype)
    }


def reduced_boundary(
    boundary: BoundarySpec, reduce_axis: int, n_reduce: int, zero_constant: bool = False
) -> BoundarySpec:
    """Boundary specification induced on a checksum vector.

    Summing ``n_reduce`` domain points along the reduced axis maps each
    boundary behaviour of the remaining axes onto the checksum vector:
    clamp stays clamp, periodic stays periodic, zero stays zero, and a
    constant boundary of value ``v`` becomes a constant of ``n_reduce*v``
    (a whole out-of-domain row/column sums to ``n_reduce * v``).

    With ``zero_constant=True`` constant boundaries map to zero instead,
    which is the correct induced behaviour for the α/β *strip* vectors
    (out-of-domain strips are identical on both sides of the subtraction
    and cancel).
    """
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


def _build_checksum_plan(
    spec: StencilSpec, boundary: BoundarySpec, reduce_axis, n_reduce, other_shape, dtype
) -> _ChecksumPlan:
    ndim = spec.ndim
    if boundary.ndim != ndim:
        raise ValueError(f"boundary has {boundary.ndim} axes, stencil is {ndim}D")
    _check_reduce_axis(reduce_axis, ndim)
    if len(other_shape) != ndim - 1:
        raise ValueError(
            f"cs_prev has shape {other_shape}, expected a {ndim - 1}D checksum "
            f"of a {ndim}D domain"
        )
    other = _other_axes(ndim, reduce_axis)
    radius = spec.radius()
    radius_other = tuple(radius[a] for a in other)
    ext_shape = tuple(n + 2 * r for n, r in zip(other_shape, radius_other))
    terms = _terms(spec, reduce_axis, radius_other, other_shape, dtype)

    def pad(zero_constant: bool):
        bspec = reduced_boundary(boundary, reduce_axis, n_reduce, zero_constant)
        return bspec, ghost_fill_ops(ext_shape, radius_other, bspec)

    return _ChecksumPlan(
        dtype=dtype,
        other_shape=other_shape,
        ext_shape=ext_shape,
        block=tuple(slice(r, r + n) for n, r in zip(other_shape, radius_other)),
        radius=radius_other,
        cs_pad=pad(False),
        strip_pad=pad(True),
        shifts=frozenset(o_d for o_d, _, _ in terms if o_d != 0),
        terms=terms,
    )


def reduced_plan(
    spec: StencilSpec,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    reduce_axis: int,
    n_reduce: int,
    other_shape: Sequence[int],
    dtype,
) -> _ChecksumPlan:
    """The plan of :func:`interpolate_checksum_reduced` for one layout.

    Takes that function's arguments, with the shape and dtype of its
    ``cs_prev`` in place of the vector, and returns the cached plan, for
    a caller that replays the same interpolation every step (the
    offline protector) to pass as ``plan=``.
    """
    if not isinstance(boundary, BoundarySpec):
        boundary = BoundarySpec.from_any(boundary, spec.ndim)
    other_shape = tuple(int(n) for n in other_shape)
    dtype = np.dtype(dtype)
    key = ("checksum", _spec_key(spec), boundary, reduce_axis, n_reduce,
           other_shape, dtype)
    return _plans.get_or_build(
        key, _build_checksum_plan, spec, boundary, reduce_axis, n_reduce,
        other_shape, dtype,
    )


def _pad_checksum(plan: _ChecksumPlan, vector: np.ndarray, pad) -> np.ndarray:
    """``vector`` surrounded by ghosts, bitwise equal to :func:`pad_array`."""
    boundary, ops = pad
    if ops is None:
        return pad_array(vector, plan.radius, boundary)
    ext = np.empty(plan.ext_shape, dtype=vector.dtype)
    ext[plan.block] = vector
    return fill_ghosts(ext, ops)


def interpolate_checksum_reduced(
    cs_prev: np.ndarray,
    spec: StencilSpec,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    reduce_axis: int,
    n_reduce: int,
    deltas: Optional[Dict[int, np.ndarray]] = None,
    constant_sum: Optional[np.ndarray] = None,
    plan: Optional[_ChecksumPlan] = None,
) -> np.ndarray:
    """Interpolate a checksum using only checksum-space information.

    This is the form the offline protector iterates Δ times (Section 4.1,
    Figure 7 of the paper): apply the stencil kernel to the previous 1D
    checksum vector. When ``deltas`` (recorded by
    :func:`extract_delta_strips` during the corresponding sweep) are
    provided, the result is *exact* for closed boundary conditions; when
    they are omitted the call implements the paper's simplified
    Equations (8)-(9), which assume the α/β terms vanish (periodic
    boundaries, or clamp boundaries with mirror-symmetric weights).

    Parameters
    ----------
    cs_prev:
        Checksum at step ``t`` (interior range of the non-reduced axes).
    spec:
        The stencil operator of the protected sweep.
    boundary:
        Full-domain boundary specification (one entry per domain axis,
        including the reduced one), or anything
        :meth:`BoundarySpec.from_any` accepts.
    reduce_axis:
        Axis summed over by this checksum.
    n_reduce:
        Domain extent along the reduced axis (needed to scale constant
        boundaries onto checksum space).
    deltas:
        Optional mapping ``{o_d: strip vector}`` of α/β corrections.
    constant_sum:
        Pre-computed checksum of the constant term, or ``None``.
    plan:
        The :func:`reduced_plan` of the other arguments, for a caller
        that replays this call every step; it serves a ``cs_prev`` of
        the shape and dtype it was built for, and any other runs as
        without one.
    """
    dtype = cs_prev.dtype
    other_shape = cs_prev.shape
    if plan is None or plan.dtype != dtype or plan.other_shape != other_shape:
        plan = reduced_plan(spec, boundary, reduce_axis, n_reduce, other_shape, dtype)

    cs_ext = _pad_checksum(plan, cs_prev, plan.cs_pad)
    shifted: Dict[int, np.ndarray] = {}
    if deltas:
        for o_d, strip in deltas.items():
            strip = np.asarray(strip, dtype=dtype)
            if strip.shape != other_shape:
                raise ValueError(
                    f"delta strip for offset {o_d} has shape {strip.shape}, "
                    f"expected {other_shape}"
                )
            o_d = int(o_d)
            if o_d in plan.shifts:
                padded = _pad_checksum(plan, strip, plan.strip_pad)
                shifted[o_d] = np.add(cs_ext, padded, out=padded)

    predicted = _predicted(other_shape, dtype, constant_sum)
    return _accumulate(predicted, plan.terms, shifted, cs_ext)
