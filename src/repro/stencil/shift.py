"""Ghost-cell padding and shifted views.

Every boundary condition is realised by surrounding the domain with a
halo of ghost cells (:func:`pad_array`). Once the padded array exists,
both the stencil sweep and the ABFT checksum interpolation reduce to
pure array shifts (:func:`shifted_view`) with no per-point branching —
the same trick the paper's C implementation uses with clamped index
arithmetic, but in vectorised form.

The same padded representation is reused by the parallel tile runner
(:mod:`repro.parallel`), where ghost cells are filled with halo data
received from neighbouring tiles instead of being synthesised from a
closed boundary condition.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.stencil.boundary import BoundaryCondition, BoundarySpec

__all__ = [
    "normalize_radius",
    "padded_shape",
    "pad_array",
    "refresh_ghosts",
    "ghost_fill_ops",
    "fill_ghosts",
    "PlanCache",
    "shifted_view",
    "interior_slices",
    "interior_view",
]


def normalize_radius(radius, ndim: int) -> Tuple[int, ...]:
    """Coerce a scalar or per-axis radius into a per-axis tuple."""
    if np.isscalar(radius):
        radius = tuple(int(radius) for _ in range(ndim))
    else:
        radius = tuple(int(r) for r in radius)
    if len(radius) != ndim:
        raise ValueError(f"expected {ndim} radii, got {len(radius)}")
    if any(r < 0 for r in radius):
        raise ValueError(f"radii must be non-negative, got {radius}")
    return radius


def padded_shape(interior_shape: Sequence[int], radius) -> Tuple[int, ...]:
    """Shape of the ghost-padded array for a given interior shape."""
    interior_shape = tuple(int(n) for n in interior_shape)
    radius = normalize_radius(radius, len(interior_shape))
    return tuple(n + 2 * r for n, r in zip(interior_shape, radius))


def pad_array(
    u: np.ndarray,
    radius,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
) -> np.ndarray:
    """Surround ``u`` with ghost cells realising the boundary condition.

    Parameters
    ----------
    u:
        Interior domain array.
    radius:
        Ghost-cell width, scalar or per-axis.
    boundary:
        Boundary specification (coerced with :meth:`BoundarySpec.from_any`).

    Returns
    -------
    numpy.ndarray
        New array of shape ``u.shape + 2 * radius`` (per axis). The
        interior block is a copy of ``u``; the halo encodes the boundary
        condition (edge-replication for clamp, wrap-around for periodic,
        a fill value for constant/zero).
    """
    radius = normalize_radius(radius, u.ndim)
    bspec = BoundarySpec.from_any(boundary, u.ndim)
    padded = u
    # Pad one axis at a time so that each axis can use a different numpy
    # pad mode. Later axes see the already-padded earlier axes, which is
    # the correct corner behaviour for separable ghost filling (corners
    # get "clamp of clamp", "wrap of constant", etc.).
    for axis in range(u.ndim):
        r = radius[axis]
        if r == 0:
            continue
        bc = bspec.axis(axis)
        pad_width = [(0, 0)] * padded.ndim
        pad_width[axis] = (r, r)
        if bc.is_clamp:
            padded = np.pad(padded, pad_width, mode="edge")
        elif bc.is_periodic:
            padded = np.pad(padded, pad_width, mode="wrap")
        else:
            padded = np.pad(
                padded, pad_width, mode="constant",
                constant_values=bc.fill_value(),
            )
    if padded is u:
        padded = u.copy()
    return padded


def refresh_ghosts(
    padded: np.ndarray,
    radius,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    axes: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Re-fill the ghost cells of an existing padded array, in place.

    This is the zero-allocation counterpart of :func:`pad_array`: instead
    of building a fresh padded copy of the interior, it rewrites only the
    halo of ``padded`` from its (possibly updated) interior block.  The
    double-buffered grids call it once per sweep, turning the former
    full-domain copy into an ``O(boundary surface)`` touch-up.

    The fill order and region semantics replicate ``pad_array`` exactly —
    axis by axis, where axis ``k``'s slabs span the already-refreshed
    ghost range of axes ``< k`` but only the interior range of axes
    ``> k``, so corners are owned by the highest axis — which makes the
    result bit-identical to a fresh :func:`pad_array` of the interior for
    every boundary kind.  The slabs of the last axis span every other
    axis, so on a C-contiguous buffer they are copied one ghost column
    of its ``(rows, width)`` view at a time: one long strided loop per
    column instead of one short loop per row, the same values.  The
    ops are derived once per layout and cached.

    ``axes`` restricts the refresh to a subset of axes: the ghost slabs
    of every other axis are treated as *externally managed* — left
    untouched, and spanned as if they were interior by the refreshed
    axes' slabs.  That is the distributed-runner contract: a rank's
    halo slabs along the distributed axis are filled by message
    ingestion, and refreshing the remaining axes afterwards reproduces
    the ghost corners ``pad_array`` would have built over the
    halo-extended block (the externally managed axis behaves exactly
    like a zero-radius axis).

    Returns ``padded`` (the same object) for chaining.
    """
    plan = _refresh_plans.get_or_build(
        (padded.shape, _key(radius), _key(boundary), _key(axes)),
        _build_refresh_plan, padded.shape, radius, boundary, axes,
    )
    if plan.ops is None:
        # Degenerate wrap (ghost wider than the interior): the in-place
        # slab fill would read half-written ghosts. np.pad's tiling
        # semantics still apply, so take the allocating path once —
        # correctness over speed for this corner case.
        padded[...] = pad_array(
            interior_view(padded, plan.radius).copy(), plan.radius, plan.boundary
        )
        return padded
    if not plan.columns or not padded.flags.c_contiguous:
        return fill_ghosts(padded, plan.ops)
    # The last axis's two slab ops come last.
    fill_ghosts(padded, plan.ops[:-2])
    fill_ghosts(padded.reshape(-1, padded.shape[-1]), plan.columns)
    return padded


class PlanCache(dict):
    """A bounded memo of immutable plans, shared across threads.

    Built plans are kept until the cache holds ``bound`` of them, then
    it is cleared (guards against unbounded growth when many distinct
    geometries pass through).  The check-then-insert runs under a lock,
    so the bound holds across threads; two threads missing one key at
    once may both build it, which is harmless for immutable plans.
    """

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound
        self._lock = threading.Lock()

    def get_or_build(self, key, build, *args):
        """The plan for ``key``, built with ``build(*args)`` on a miss."""
        plan = self.get(key)
        if plan is None:
            plan = build(*args)
            with self._lock:
                if len(self) >= self.bound:
                    self.clear()
                self[key] = plan
        return plan


#: Refresh plans cached before the cache is reset.
_MAX_CACHED_REFRESH_PLANS = 32

_refresh_plans = PlanCache(_MAX_CACHED_REFRESH_PLANS)


class _RefreshPlan(NamedTuple):
    """What :func:`refresh_ghosts` does to one padded layout."""

    #: Per-axis ghost width, external axes set to 0.
    radius: Tuple[int, ...]
    boundary: BoundarySpec
    #: :func:`ghost_fill_ops` of the layout; ``None`` on a degenerate
    #: periodic axis, which is padded with :func:`pad_array` instead.
    ops: Optional[Tuple[GhostFillOp, ...]]
    #: The last two ops (the last axis's slabs) as one op per ghost
    #: column of the buffer's ``(rows, width)`` view; empty when the
    #: last axis has ghost width 0.  On a 514x514x10 float32 buffer the
    #: two clamp columns took 0.97 ms where the two slabs took 2.2.
    columns: Tuple[GhostFillOp, ...]


def _key(value):
    """``value`` if hashable, else a tuple of it (a list of radii or axes)."""
    try:
        hash(value)
    except TypeError:
        return tuple(value)
    return value


def _build_refresh_plan(shape, radius, boundary, axes) -> _RefreshPlan:
    ndim = len(shape)
    radius = normalize_radius(radius, ndim)
    if axes is not None:
        keep = {int(a) for a in axes}
        if not keep.issubset(range(ndim)):
            raise ValueError(
                f"refresh axes {sorted(keep)} out of range for a "
                f"{ndim}D array"
            )
        # An externally managed axis is equivalent to a zero-radius one:
        # its slabs are never written, and later axes span its full
        # extent (halo included) — the pad_array corner semantics for a
        # pre-extended axis.
        radius = tuple(
            r if axis in keep else 0 for axis, r in enumerate(radius)
        )
    bspec = BoundarySpec.from_any(boundary, ndim)
    ops = ghost_fill_ops(shape, radius, bspec)
    columns = []
    if ops is not None and radius[-1] > 0:
        # The last axis's slabs index every other axis with ``slice(None)``.
        for dst, src in ops[-2:]:
            for i, col in enumerate(range(dst[-1].start, dst[-1].stop)):
                if isinstance(src, tuple):
                    # Clamp reads one edge column, periodic a run of them.
                    last = range(src[-1].start, src[-1].stop)
                    src_col = (slice(None), last[min(i, len(last) - 1)])
                    columns.append(((slice(None), col), src_col))
                else:
                    columns.append(((slice(None), col), src))
    return _RefreshPlan(radius, bspec, ops, tuple(columns))


GhostFillOp = Tuple[Tuple[slice, ...], object]


def ghost_fill_ops(
    padded_shape: Sequence[int], radius: Sequence[int], boundary: BoundarySpec
) -> Optional[Tuple[GhostFillOp, ...]]:
    """The slab assignments that fill a padded array's ghosts in place.

    ``radius`` is the per-axis ghost width (see :func:`normalize_radius`).
    Each op is ``(dst, src)``: ``dst`` indexes a ghost slab and ``src``
    is either the index of the interior slab copied into it (clamp,
    periodic) or the fill value (constant, zero).  Applied in order by
    :func:`fill_ghosts`, they reproduce :func:`pad_array` bit for bit —
    axis by axis, where axis ``k``'s slabs span the ghost range of axes
    ``< k`` but only the interior range of axes ``> k``, so corners are
    owned by the highest axis.

    Returns ``None`` when a periodic axis is degenerate (ghost wider
    than the interior): its wrap would read ghosts that are not written
    yet, so such an array must be padded with :func:`pad_array`.
    """
    ndim = len(padded_shape)
    interior = [n - 2 * r for n, r in zip(padded_shape, radius)]
    for axis, (r, n) in enumerate(zip(radius, interior)):
        if n < 0:
            raise ValueError(
                f"padded extent {padded_shape[axis]} smaller than ghost "
                f"width 2*{r} along axis {axis}"
            )
        if r > n and boundary.axis(axis).is_periodic:
            return None
    ops = []
    for axis in range(ndim):
        r, n = radius[axis], interior[axis]
        if r == 0:
            continue
        base = [slice(None)] * ndim
        for ax2 in range(axis + 1, ndim):
            base[ax2] = slice(radius[ax2], radius[ax2] + interior[ax2])

        def slab(start: int, stop: int) -> Tuple[slice, ...]:
            base[axis] = slice(start, stop)
            return tuple(base)

        low, high = slab(0, r), slab(r + n, 2 * r + n)
        bc = boundary.axis(axis)
        if bc.is_clamp:
            ops.append((low, slab(r, r + 1)))
            ops.append((high, slab(r + n - 1, r + n)))
        elif bc.is_periodic:
            # Ghost and source ranges are disjoint because r <= n.
            ops.append((low, slab(n, n + r)))
            ops.append((high, slab(r, 2 * r)))
        else:
            fill = bc.fill_value()
            ops.append((low, fill))
            ops.append((high, fill))
    return tuple(ops)


def fill_ghosts(padded: np.ndarray, ops: Sequence[GhostFillOp]) -> np.ndarray:
    """Apply :func:`ghost_fill_ops` to ``padded`` in place; returns it."""
    for dst, src in ops:
        padded[dst] = padded[src] if isinstance(src, tuple) else src
    return padded


def interior_slices(radius, ndim: int) -> Tuple[slice, ...]:
    """Slices selecting the interior block of a padded array."""
    radius = normalize_radius(radius, ndim)
    return tuple(slice(r, None if r == 0 else -r) for r in radius)


def interior_view(padded: np.ndarray, radius) -> np.ndarray:
    """View of the interior block of a padded array."""
    return padded[interior_slices(radius, padded.ndim)]


def shifted_view(
    padded: np.ndarray,
    offset: Sequence[int],
    radius,
    interior_shape: Sequence[int],
) -> np.ndarray:
    """View of the padded array shifted by ``offset``.

    The returned view ``v`` satisfies ``v[x, y, ...] ==
    padded[x + offset[0] + radius[0], y + offset[1] + radius[1], ...]``,
    i.e. it is the array of neighbour values ``u[x + i, y + j, ...]`` for
    every interior point, with the boundary condition already applied via
    the ghost cells.

    Parameters
    ----------
    padded:
        Array produced by :func:`pad_array` (or by halo exchange).
    offset:
        Per-axis stencil offset ``(i, j[, k])``.
    radius:
        Ghost width used to build ``padded``.
    interior_shape:
        Shape of the interior domain.
    """
    ndim = padded.ndim
    radius = normalize_radius(radius, ndim)
    offset = tuple(int(o) for o in offset)
    if len(offset) != ndim:
        raise ValueError(f"offset has {len(offset)} components, array has {ndim}")
    slices = []
    for axis in range(ndim):
        o, r, n = offset[axis], radius[axis], int(interior_shape[axis])
        if abs(o) > r:
            raise ValueError(
                f"offset {o} exceeds ghost radius {r} along axis {axis}"
            )
        start = r + o
        slices.append(slice(start, start + n))
    return padded[tuple(slices)]
