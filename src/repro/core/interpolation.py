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
    Theorem 1 — never a full domain pass.  Given the padded domain's
    :class:`~repro.stencil.doublebuffer.GridLayout`, it reads still less
    (the layout rule below).

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
  axis, dtype, layout), serves :func:`interpolate_checksum_padded` and
  :func:`extract_delta_strips`. It holds the index pairs that sum the
  ghost border of the extended checksum out of the padded domain (or
  the ghost-fill ops that rebuild it from the checksum, by the layout
  rule), the gained/lost strip windows of every distinct reduce-axis
  offset, and one term per stencil point: its reduce-axis offset, the
  shifted window of the extended vector it reads and its weight cast to
  the dtype;
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
the results are bitwise identical. Geometry errors (an out-of-range
``reduce_axis``, an offset wider than the ghosts) are raised when a plan
is built; shape errors are checked on every call. Plans are immutable
and every call allocates its own checksum-sized buffers, so threads can
share a plan and returned vectors never alias.

The layout rule
---------------
The extended checksum's ghost border is a sum, over the reduce axis, of
the padded domain's ghost slabs.  Without a layout every one of them is
read from the domain: tiles, ranks and campaign batches carry halo data
there.  A caller that owns its buffer pair and refreshed its ghosts from
its layout passes that layout, and then, when every refreshed axis other
than the reduce axis is clamp, periodic with ghost <= extent or a zero
fill, each of those slabs is a copy of interior slabs (or zeros), filled
by :func:`~repro.stencil.shift.ghost_fill_ops`.  Its sum is then the same
copy of checksum entries, so the plan applies the same ops to the
extended checksum, after reading only the external axes' borders from
the domain.  Both forms add each lane over the reduce axis in order,
except where the domain read collapses a border slab one lane wide to a
1-D sum, which NumPy adds pairwise; there they can differ by a few ULP.
Float64 sums of float32 data in a moderate range are exact, so float32
domains with float64 checksums agree bit for bit.  The rule is all or
nothing: a non-zero constant fill on any other refreshed axis sends
every border back to the domain, since that axis's slabs own their
ghost corners with the closed axes.

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

from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.doublebuffer import GridLayout
from repro.stencil.shift import (
    GhostFillOp,
    PlanCache,
    fill_ghosts,
    ghost_fill_ops,
    normalize_radius,
    pad_array,
)
from repro.stencil.spec import StencilSpec, spec_key as _spec_key

__all__ = [
    "interpolate_checksum",
    "interpolate_checksum_padded",
    "interpolate_checksum_reduced",
    "extract_delta_strips",
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


class _ChecksumPlan(NamedTuple):
    """Geometry of an interpolation in checksum space only."""

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


def _closed_ops(layout: GridLayout, reduce_axis: int, ext_shape):
    """Ops rebuilding the extended checksum's closed-axis border, or ``None``.

    ``None`` when the layout rule (module docstring) sends every border
    to the domain, on a degenerate periodic axis included.  External
    axes get width 0, as in :func:`~repro.stencil.shift.refresh_ghosts`:
    their border is read from the domain before the ops run.
    """
    conditions, widths = [], []
    for axis, (r, kind, fill) in enumerate(
        zip(layout.radius, layout.kinds, layout.fills)
    ):
        if axis == reduce_axis:
            continue
        if kind == "external":
            bc, r = BoundaryCondition.clamp(), 0
        elif kind == "clamp":
            bc = BoundaryCondition.clamp()
        elif kind == "periodic":
            bc = BoundaryCondition.periodic()
        elif kind == "fill" and fill == 0.0:
            bc = BoundaryCondition.zero()
        else:
            return None
        conditions.append(bc)
        widths.append(r)
    return ghost_fill_ops(ext_shape, widths, BoundarySpec(tuple(conditions)))


def _build_domain_plan(
    spec, radius, interior_shape, reduce_axis, dtype, layout
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
    if layout is not None:
        if layout.radius != radius:
            raise ValueError(
                f"layout radius {layout.radius} does not match the padded "
                f"domain's radius {radius}"
            )
        closed = _closed_ops(layout, reduce_axis, ext_shape)

    # The extended checksum's ghost border is summed over the interior
    # window of the reduce axis (only on external axes when the closed
    # axes' borders come from the checksum); the interior block is the
    # checksum itself.
    interior = _window(ndim, reduce_axis, r_d, r_d + n_d)
    borders = []
    for pos, axis in enumerate(other):
        r_a = radius[axis]
        if r_a == 0 or (closed is not None and layout.kinds[axis] != "external"):
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

    return _DomainPlan(
        reduce_axis=reduce_axis,
        padded_shape=tuple(n + 2 * r for n, r in zip(interior_shape, radius)),
        other_shape=other_shape,
        ext_shape=ext_shape,
        block=tuple(slice(r, r + n) for n, r in zip(other_shape, radius_other)),
        borders=tuple(borders),
        closed=() if closed is None else closed,
        strips=tuple((o_d, gained, lost) for o_d, (gained, lost) in strips.items()),
        terms=terms,
    )


def _domain_plan(
    spec, radius, interior_shape, reduce_axis, padded_prev, dtype, layout=None
):
    """The cached domain plan, after checking ``padded_prev`` against it."""
    interior_shape = tuple(int(n) for n in interior_shape)
    if not isinstance(radius, tuple):
        radius = normalize_radius(radius, len(interior_shape))
    spec_key = _spec_key(spec)
    if not isinstance(spec, StencilSpec):
        spec = spec_key[0]
    key = ("domain", spec_key, radius, interior_shape, reduce_axis, dtype, layout)
    plan = _plans.get_or_build(
        key, _build_domain_plan, spec, radius, interior_shape, reduce_axis,
        dtype, layout,
    )
    if padded_prev.shape != plan.padded_shape:
        raise ValueError(
            f"padded_prev has shape {padded_prev.shape}, expected "
            f"{plan.padded_shape} (domain {interior_shape}, radius {radius})"
        )
    return plan


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
    layout: Optional[GridLayout] = None,
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
    layout:
        The :class:`~repro.stencil.doublebuffer.GridLayout` of
        ``padded_prev``, from a caller that refreshed its ghosts from that
        layout after the last write to its interior.  ``None`` (the
        default) treats every ghost as possible halo data and sums each
        border from the domain.  With a layout, when every refreshed
        axis other than ``reduce_axis`` is clamp, periodic with ghost <=
        extent or a zero fill, those axes' border sums are rebuilt from
        ``cs_prev`` by the ghost-fill ops :func:`~repro.stencil.shift.refresh_ghosts`
        applies, after the external axes' borders are read from the
        domain; otherwise every border is read from the domain (module
        docstring, "The layout rule").

    Returns
    -------
    numpy.ndarray
        The predicted step-``t+1`` checksum; same shape as ``cs_prev``.
    """
    dtype = np.result_type(cs_prev.dtype, padded_prev.dtype)
    plan = _domain_plan(
        spec, radius, interior_shape, reduce_axis, padded_prev, dtype, layout
    )
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
    ext = np.empty(plan.ext_shape, dtype=dtype)
    ext[plan.block] = cs_prev
    for dst, src in plan.borders:
        ext[dst] = padded_prev[src].sum(axis=plan.reduce_axis, dtype=dtype)
    fill_ghosts(ext, plan.closed)

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
) -> Dict[int, np.ndarray]:
    """Record the per-offset boundary strip sums of a step.

    The returned dictionary maps each distinct reduce-axis offset
    ``o_d != 0`` appearing in the stencil to its α/β correction vector
    over the *interior* range of the other axes. The offline protector
    stores one such dictionary per sweep (a few KiB) so that it can
    replay the exact interpolation over a whole detection period without
    keeping the intermediate domains alive.
    """
    dtype = padded_prev.dtype
    plan = _domain_plan(spec, radius, interior_shape, reduce_axis, padded_prev, dtype)
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
        other_shape=other_shape,
        ext_shape=ext_shape,
        block=tuple(slice(r, r + n) for n, r in zip(other_shape, radius_other)),
        radius=radius_other,
        cs_pad=pad(False),
        strip_pad=pad(True),
        shifts=frozenset(o_d for o_d, _, _ in terms if o_d != 0),
        terms=terms,
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
    """
    if not isinstance(boundary, BoundarySpec):
        boundary = BoundarySpec.from_any(boundary, spec.ndim)
    dtype = cs_prev.dtype
    other_shape = cs_prev.shape
    key = ("checksum", _spec_key(spec), boundary, reduce_axis, n_reduce,
           other_shape, dtype)
    plan = _plans.get_or_build(
        key, _build_checksum_plan, spec, boundary, reduce_axis, n_reduce,
        other_shape, dtype,
    )

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
