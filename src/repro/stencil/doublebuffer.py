"""Persistent double-buffered padded storage for stencil domains.

Historically every sweep paid for one full-domain copy: ``pad_array``
allocated a fresh padded array, copied the interior into it and filled
the halo.  :class:`DoubleBufferedGrid` removes that copy from the hot
path by keeping *two* persistent padded buffers:

* the **front** buffer holds the current domain; before a sweep only its
  ghost cells are re-filled in place (:func:`~repro.stencil.shift.refresh_ghosts`,
  an ``O(boundary surface)`` operation);
* the sweep writes the new interior straight into the **back** buffer
  (via :meth:`repro.backends.base.Backend.sweep_into`);
* the pair then swaps, so the buffer that held step ``t`` becomes the
  scratch target for step ``t+2``.

:meth:`DoubleBufferedGrid.step` drives both stages through the
backend's ``step_into*`` primitives in one call, so a backend that owns
its own ghost refresh (e.g. the numba JIT backend) can perform the
whole protected iteration — refresh, sweep and per-point checksums —
in a single compiled traversal of the pair.

The previous step therefore stays alive exactly one iteration — long
enough for the ABFT protectors, which read ``grid.previous_padded``
immediately after each sweep, and no longer.

For the process-pool tile executor the pair can be migrated into
``multiprocessing.shared_memory`` (:meth:`DoubleBufferedGrid.share`):
worker processes then attach the same physical pages by name and the
halo pipeline crosses process boundaries without copying the domain.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import (
    interior_view,
    normalize_radius,
    padded_shape,
    refresh_ghosts,
)

__all__ = ["GridLayout", "DoubleBufferedGrid"]


@dataclass(frozen=True)
class GridLayout:
    """Structural description of a padded buffer's ghost layout.

    This is the layout half of a kernel specialization: per-axis ghost
    width, per-axis boundary *kind* and which axes are externally
    managed (their slabs are filled by halo ingestion, never by the
    refresh).  Fill *values* for constant/zero boundaries are runtime
    kernel arguments, not part of the layout — layouts differing only
    in the fill value share one compiled kernel.

    Parameters
    ----------
    radius:
        Per-axis ghost width of the padded buffers.
    kinds:
        Per-axis boundary kind: ``"clamp"``, ``"periodic"``, ``"fill"``
        (covers both ``constant`` and ``zero``) or ``"external"``.
    fills:
        Per-axis ghost fill values (0.0 for non-``fill`` axes).
    """

    radius: Tuple[int, ...]
    kinds: Tuple[str, ...]
    fills: Tuple[float, ...]

    @property
    def ndim(self) -> int:
        return len(self.radius)

    @property
    def external_axes(self) -> Tuple[int, ...]:
        return tuple(
            a for a, kind in enumerate(self.kinds) if kind == "external"
        )

    @classmethod
    def from_args(
        cls,
        radius,
        boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
        ndim: int,
        refresh_axes: Optional[Sequence[int]] = None,
    ) -> "GridLayout":
        """Build a layout from ``step_into``-style arguments.

        Axes outside ``refresh_axes`` (``None`` → all axes refresh) are
        marked ``"external"`` regardless of their boundary condition,
        mirroring :func:`repro.stencil.shift.refresh_ghosts`.
        """
        radius = normalize_radius(radius, ndim)
        bspec = BoundarySpec.from_any(boundary, ndim)
        keep = None if refresh_axes is None else {int(a) for a in refresh_axes}
        kinds = []
        fills = []
        for axis, bc in enumerate(bspec):
            if keep is not None and axis not in keep:
                kinds.append("external")
                fills.append(0.0)
            elif bc.is_clamp:
                kinds.append("clamp")
                fills.append(0.0)
            elif bc.is_periodic:
                kinds.append("periodic")
                fills.append(0.0)
            else:
                kinds.append("fill")
                fills.append(float(bc.fill_value()))
        return cls(tuple(radius), tuple(kinds), tuple(fills))

    def signature(self) -> str:
        """Canonical structural identity (fill values excluded)."""
        axes = ";".join(
            f"{r}:{kind}" for r, kind in zip(self.radius, self.kinds)
        )
        return f"layout{self.ndim}d[{axes}]"


def _release_shared(blocks) -> None:
    """Close and unlink the shared-memory blocks backing a buffer pair."""
    for shm in blocks:
        try:
            # Raises BufferError while numpy views are still alive; the
            # resource tracker then reclaims the block at process exit.
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # already released elsewhere
            pass


class DoubleBufferedGrid:
    """A pair of persistent ghost-padded buffers for one stencil domain.

    Parameters
    ----------
    initial:
        Interior domain values (always copied into the front buffer).
    radius:
        Ghost width, scalar or per axis.
    boundary:
        Boundary specification used by :meth:`refresh`.
    dtype:
        Buffer dtype (``None`` → dtype of ``initial``).
    shared:
        Allocate the pair in ``multiprocessing.shared_memory`` straight
        away (equivalent to calling :meth:`share` after construction).
    external_axes:
        Axes whose ghost slabs are *externally managed*: :meth:`refresh`
        and :meth:`step` never touch them, leaving whatever a halo
        exchange wrote there in place, while the remaining axes keep
        refreshing from ``boundary`` (their slabs span the external
        halo like interior, so ghost corners match what ``pad_array``
        would build over the halo-extended block).  This is how the
        distributed runner gives each rank a persistent buffer pair:
        the distributed axis is external, its front-buffer slabs are
        filled by message ingestion before every step.
    """

    def __init__(
        self,
        initial: np.ndarray,
        radius,
        boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
        dtype=None,
        shared: bool = False,
        external_axes: Sequence[int] = (),
    ) -> None:
        initial = np.asarray(initial)
        self.radius = normalize_radius(radius, initial.ndim)
        self.boundary = BoundarySpec.from_any(boundary, initial.ndim)
        self.external_axes = tuple(sorted({int(a) for a in external_axes}))
        if any(a < 0 or a >= initial.ndim for a in self.external_axes):
            raise ValueError(
                f"external_axes {self.external_axes} out of range for a "
                f"{initial.ndim}D domain"
            )
        #: Axes the per-step ghost refresh owns (``None`` → all of them).
        self.refresh_axes = (
            tuple(a for a in range(initial.ndim) if a not in self.external_axes)
            if self.external_axes
            else None
        )
        self.interior_shape = initial.shape
        self.padded_shape = padded_shape(initial.shape, self.radius)
        self.dtype = np.dtype(dtype) if dtype is not None else initial.dtype
        self._shm_blocks: Tuple = ()
        self._shm_names: Optional[Tuple[str, str]] = None
        self._finalizer = None
        self._front = np.zeros(self.padded_shape, dtype=self.dtype)
        self._back = np.zeros(self.padded_shape, dtype=self.dtype)
        interior_view(self._front, self.radius)[...] = initial
        if shared:
            self.share()

    # -- accessors ----------------------------------------------------------
    @property
    def front(self) -> np.ndarray:
        """The padded buffer holding the current step."""
        return self._front

    @property
    def back(self) -> np.ndarray:
        """The padded scratch buffer the next sweep writes into."""
        return self._back

    @property
    def interior(self) -> np.ndarray:
        """View of the current interior domain (front buffer)."""
        return interior_view(self._front, self.radius)

    @property
    def back_interior(self) -> np.ndarray:
        """View of the back buffer's interior (the next sweep's target)."""
        return interior_view(self._back, self.radius)

    def nbytes(self) -> int:
        """Total footprint of the pair in bytes."""
        return int(self._front.nbytes + self._back.nbytes)

    @property
    def layout(self) -> GridLayout:
        """The pair's :class:`GridLayout` (the kernel-compiler cache key)."""
        return GridLayout.from_args(
            self.radius,
            self.boundary,
            len(self.interior_shape),
            refresh_axes=self.refresh_axes,
        )

    # -- the per-step lifecycle ---------------------------------------------
    def refresh(self) -> np.ndarray:
        """Re-fill the front buffer's ghost cells in place; returns it.

        Called once per sweep, immediately before the buffer is read, so
        that interior mutations since the last step (ABFT corrections,
        injected faults) are reflected in the halo.  Externally managed
        axes (``external_axes``) are skipped — their slabs hold halo
        data the caller ingested.
        """
        return refresh_ghosts(
            self._front, self.radius, self.boundary, axes=self.refresh_axes
        )

    def step(
        self,
        backend,
        spec,
        constant: Optional[np.ndarray] = None,
        axes: Optional[Sequence[int]] = None,
        checksum_dtype=None,
    ):
        """One backend-owned sweep of the pair: refresh + sweep (+ checksums).

        This is the fast path of the per-step lifecycle: the whole
        iteration — ghost refresh of the front buffer, sweep into the
        back buffer and (with ``axes``) per-axis checksum accumulation —
        is delegated to the backend's ``step_into`` /
        ``step_into_with_checksums`` primitive.  A backend that fuses
        the refresh into its compiled sweep (``supports_fused_step``)
        therefore performs the entire protected iteration in a single
        traversal of the pair; every other backend transparently gets
        the classic :meth:`refresh`-then-``sweep_into`` sequence from
        the base-class implementation.  Either way the front buffer's
        halo is consistent with its interior afterwards — the ABFT
        protectors read it as ``previous_padded``.

        The pair is **not** swapped: callers (``GridBase._commit``)
        own the swap so previous-step bookkeeping stays in one place.

        Returns ``(src_padded, new_interior, checksums)`` where
        ``checksums`` is ``None`` when ``axes`` is ``None``.
        """
        if axes is None:
            new = backend.step_into(
                self._front,
                self._back,
                spec,
                self.radius,
                self.interior_shape,
                self.boundary,
                constant=constant,
                refresh_axes=self.refresh_axes,
            )
            return self._front, new, None
        new, checksums = backend.step_into_with_checksums(
            self._front,
            self._back,
            spec,
            self.radius,
            self.interior_shape,
            self.boundary,
            axes,
            constant=constant,
            checksum_dtype=checksum_dtype,
            refresh_axes=self.refresh_axes,
        )
        return self._front, new, checksums

    def swap(self) -> None:
        """Exchange front and back (the freshly swept back becomes current)."""
        self._front, self._back = self._back, self._front
        if self._shm_names is not None:
            self._shm_names = (self._shm_names[1], self._shm_names[0])

    # -- checkpointing --------------------------------------------------------
    def snapshot_interior(self) -> np.ndarray:
        """Contiguous copy of the front interior (the checkpoint payload).

        Only the interior is captured: every ghost slab of the pair is
        rebuilt before it is next read — locally managed axes by the
        per-step :meth:`refresh`, externally managed axes by the next
        halo ingest — so snapshotting the interior alone is sufficient
        to restore the pair bit-for-bit via :meth:`restore_interior`.
        """
        return self.interior.copy()

    def restore_interior(self, u: np.ndarray) -> None:
        """Overwrite the front interior with ``u`` (snapshot restore).

        The back buffer needs no restore: the next sweep overwrites it
        entirely before anything reads it, so rolling the front interior
        back is enough for bitwise-identical replay.
        """
        u = np.asarray(u)
        if u.shape != self.interior_shape:
            raise ValueError(
                f"expected interior shape {self.interior_shape}, got {u.shape}"
            )
        interior_view(self._front, self.radius)[...] = u

    # -- shared-memory migration --------------------------------------------
    @property
    def is_shared(self) -> bool:
        """Whether the pair lives in ``multiprocessing.shared_memory``."""
        return self._shm_names is not None

    @property
    def shm_names(self) -> Optional[Tuple[str, str]]:
        """``(front_name, back_name)`` shared-memory block names, if shared.

        The names track :meth:`swap`, so ``shm_names[0]`` always refers
        to the block currently holding the front buffer.
        """
        return self._shm_names

    def share(self) -> Tuple[str, str]:
        """Migrate the pair into shared memory (idempotent).

        The current contents are copied across once; afterwards the
        front/back views alias the shared blocks, so every later sweep,
        correction and ghost refresh happens directly in memory that
        worker processes can attach by name.
        """
        if self._shm_names is not None:
            return self._shm_names
        from multiprocessing import shared_memory

        nbytes = int(
            np.prod(self.padded_shape, dtype=np.int64) * self.dtype.itemsize
        )
        blocks = []
        arrays = []
        for source in (self._front, self._back):
            shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
            arr = np.ndarray(self.padded_shape, dtype=self.dtype, buffer=shm.buf)
            arr[...] = source
            blocks.append(shm)
            arrays.append(arr)
        self._front, self._back = arrays
        self._shm_blocks = tuple(blocks)
        self._shm_names = (blocks[0].name, blocks[1].name)
        # Unlink happens at gc/interpreter exit even if close() is never
        # called explicitly, so tests and crashed runs do not leak blocks.
        self._finalizer = weakref.finalize(self, _release_shared, self._shm_blocks)
        return self._shm_names

    def close(self) -> None:
        """Release the shared-memory blocks (no-op for heap buffers).

        The buffer contents are preserved: the pair is copied back onto
        the ordinary heap before the blocks are unlinked, so a grid can
        keep stepping after its executor is shut down.
        """
        if self._shm_names is None:
            return
        self._front = self._front.copy()
        self._back = self._back.copy()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _release_shared(self._shm_blocks)
        self._shm_blocks = ()
        self._shm_names = None

    def __repr__(self) -> str:
        kind = "shared" if self.is_shared else "heap"
        ext = (
            f", external_axes={self.external_axes}" if self.external_axes else ""
        )
        return (
            f"DoubleBufferedGrid(interior={self.interior_shape}, "
            f"radius={self.radius}, {kind}{ext})"
        )
