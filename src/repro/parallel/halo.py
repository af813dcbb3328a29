"""Halo (ghost-cell) helpers for tiled and distributed execution.

In the shared-memory tiled runner the whole previous-step domain is
available, so a tile's ghost cells are simply a larger slice of the
globally padded array (:func:`padded_tile_view`). In the simulated
distributed runner each rank owns a persistent padded buffer pair, so
halo strips are exchanged explicitly (:func:`boundary_strip`) and
written **in place** into the receiver's ghost slabs
(:func:`ingest_halo`, :func:`synthesize_ghost_into`) — no per-step
reassembly of the padded block.  (The allocating forms of the
pre-buffer-pair execution shape live on in
``benchmarks/bench_weak_scaling.py``, whose legacy baseline uses them.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.parallel.decomposition import TileBox
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.shift import normalize_radius

__all__ = [
    "padded_tile_view",
    "tile_constant",
    "boundary_strip",
    "ghost_slab",
    "ingest_halo",
    "synthesize_ghost_into",
]


def padded_tile_view(
    padded_global: np.ndarray, box: TileBox, radius
) -> np.ndarray:
    """View of a globally padded array covering a tile plus its halo.

    ``padded_global`` is the output of
    :func:`repro.stencil.shift.pad_array` for the *whole* domain; the
    returned view has the tile's interior extent plus ``radius`` ghost
    cells on every side, whose values are either neighbouring-tile data
    or the global boundary condition — exactly what
    :func:`repro.stencil.sweep.sweep_padded` and
    :meth:`repro.core.online.OnlineABFT.process` expect.
    """
    radius = normalize_radius(radius, padded_global.ndim)
    slices = []
    for axis, s in enumerate(box.slices):
        # The global interior index i lives at padded index i + radius;
        # extending by radius on each side keeps everything in bounds.
        slices.append(slice(s.start, s.stop + 2 * radius[axis]))
    return padded_global[tuple(slices)]


def tile_constant(
    constant: Optional[np.ndarray], box: TileBox
) -> Optional[np.ndarray]:
    """The tile-local slice of the per-point constant term (or ``None``)."""
    if constant is None:
        return None
    return constant[box.slices]


def boundary_strip(u: np.ndarray, axis: int, side: str, width: int) -> np.ndarray:
    """Copy of the ``width``-thick boundary strip of ``u`` along ``axis``.

    ``side`` is ``"low"`` (indices ``0..width-1``) or ``"high"``
    (the last ``width`` indices). This is the payload a rank sends to its
    neighbour during halo exchange.
    """
    if width < 1:
        raise ValueError("strip width must be >= 1")
    sl = [slice(None)] * u.ndim
    if side == "low":
        sl[axis] = slice(0, width)
    elif side == "high":
        sl[axis] = slice(u.shape[axis] - width, u.shape[axis])
    else:
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
    # Explicit copy: the strip is a message payload and must not alias the
    # sender's interior (ascontiguousarray would return a view for slices
    # that are already contiguous).
    return np.array(u[tuple(sl)], copy=True)


def ghost_slab(
    padded: np.ndarray, radius, axis: int, side: str
) -> np.ndarray:
    """View of one ghost slab of a padded buffer.

    The slab spans the ``radius[axis]``-thick ghost range of ``axis`` on
    the requested ``side`` and the *interior* range of every other axis
    — exactly the region a neighbour's :func:`boundary_strip` payload
    covers.  Ghost corners are excluded on purpose: they are owned by
    the later axes' boundary refresh (see
    :func:`repro.stencil.shift.refresh_ghosts`), which runs after the
    halo has been ingested.
    """
    radius = normalize_radius(radius, padded.ndim)
    width = radius[axis]
    if width < 1:
        raise ValueError(f"axis {axis} has no ghost cells (radius 0)")
    sl = []
    for ax in range(padded.ndim):
        r = radius[ax]
        n = padded.shape[ax] - 2 * r
        if ax == axis:
            if side == "low":
                sl.append(slice(0, width))
            elif side == "high":
                sl.append(slice(r + n, 2 * r + n))
            else:
                raise ValueError(f"side must be 'low' or 'high', got {side!r}")
        else:
            sl.append(slice(r, r + n) if r else slice(None))
    return padded[tuple(sl)]


def ingest_halo(
    padded: np.ndarray, radius, axis: int, side: str, payload: np.ndarray
) -> np.ndarray:
    """Write a received halo payload into a padded buffer's ghost slab.

    This is the zero-copy receive path of the distributed runner: the
    neighbour's boundary strip lands directly in the persistent front
    buffer — no concatenate of strips and block, no fresh ``pad_array``
    block.  Returns the written slab view.
    """
    slab = ghost_slab(padded, radius, axis, side)
    payload = np.asarray(payload)
    if payload.shape != slab.shape:
        raise ValueError(
            f"halo payload has shape {payload.shape}, ghost slab expects "
            f"{slab.shape}"
        )
    slab[...] = payload
    return slab


def synthesize_ghost_into(
    padded: np.ndarray, radius, axis: int, side: str, bc: BoundaryCondition
) -> np.ndarray:
    """Fill one ghost slab in place from a closed boundary condition.

    Used by ranks at the global domain edge (no neighbour on that
    side).  Periodic
    boundaries are handled by neighbour wrap-around in the runner, so
    they never reach this function.  Returns the filled slab view.
    """
    slab = ghost_slab(padded, radius, axis, side)
    if bc.is_clamp:
        radius_t = normalize_radius(radius, padded.ndim)
        r = radius_t[axis]
        n = padded.shape[axis] - 2 * r
        edge = r if side == "low" else r + n - 1
        sl = []
        for ax in range(padded.ndim):
            r2 = radius_t[ax]
            n2 = padded.shape[ax] - 2 * r2
            if ax == axis:
                sl.append(slice(edge, edge + 1))
            else:
                sl.append(slice(r2, r2 + n2) if r2 else slice(None))
        slab[...] = padded[tuple(sl)]
    elif bc.is_periodic:
        raise ValueError("periodic ghosts are exchanged, not synthesised")
    else:
        slab[...] = bc.fill_value()
    return slab

