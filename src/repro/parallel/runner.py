"""Shared-memory tiled runner with per-tile ABFT protection.

The runner splits the global domain into tiles, sweeps every tile from a
ghost-padded view of the previous global state and lets each tile's own
:class:`~repro.core.online.OnlineABFT` instance verify and correct its
block independently — reproducing the paper's "apply the scheme within
each thread, no extra synchronisation or communication" design
(Sections 1 and 5.1).

Data movement follows the zero-copy halo pipeline of the double-buffered
grids: every step refreshes the ghost cells of the grid's persistent
front buffer in place, each tile sweeps a halo-extended *view* of it and
writes its new interior directly into the tile's slice of the back
buffer, and the pair swaps.  No full-domain array is allocated per
iteration on any executor:

* **serial / threads** — tiles are swept by closures over the shared
  buffers (NumPy releases the GIL inside the kernels, so threads overlap
  on multi-core machines);
* **process** — the buffer pair is migrated into
  ``multiprocessing.shared_memory`` once, worker processes attach it by
  name and sweep their tile slices in place, and only the per-tile fused
  checksum vectors are pickled back (:mod:`repro.parallel.shm`); the
  per-tile protectors then reduce those checksums in the parent.

Corrections write straight into the tile's view of the global array, so
a corrected tile is immediately consistent for the next iteration's halo
reads by its neighbours — in every executor mode, including across
process boundaries.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.backends import Backend, get_backend
from repro.backends.registry import BackendLike
from repro.core.online import OnlineABFT
from repro.core.protector import InjectHook, StepReport
from repro.parallel.decomposition import TileBox, decompose, decompose_layers
from repro.parallel.executor import make_executor
from repro.parallel.halo import padded_tile_view, tile_constant
from repro.parallel.shm import TileTask, share_array_copy
from repro.stencil.grid import GridBase
from repro.stencil.shift import interior_view

__all__ = ["TiledStencilRunner"]

#: Builds a protector for one tile: ``factory(box, grid) -> OnlineABFT | None``.
TileProtectorFactory = Callable[[TileBox, GridBase], Optional[OnlineABFT]]


class TiledStencilRunner:
    """Advance a grid tile by tile, each tile protected independently.

    Parameters
    ----------
    grid:
        The global domain (its ``spec``/``boundary``/``constant`` drive
        every tile's sweep).
    parts:
        Tiles per axis, e.g. ``(2, 2)`` for a 2x2 tiling of a 2D domain.
        For 3D domains ``parts="layers"`` assigns one tile per z-layer,
        the paper's OpenMP mapping.
    protector_factory:
        Callable building one protector per tile; ``None`` runs the tiles
        unprotected. Use :meth:`with_online_abft` for the common case.
    executor:
        Tile executor: a :class:`SerialExecutor`, a
        :class:`~repro.parallel.executor.ThreadPoolTileExecutor`, or a
        :class:`~repro.parallel.executor.ProcessPoolTileExecutor`
        (detected through its ``map_tiles`` capability, which switches
        the runner to shared-memory task dispatch).  ``None`` builds one
        through :func:`~repro.parallel.executor.make_executor`'s default
        chain (``--executor`` / ``REPRO_EXECUTOR``, else serial); an
        executor the runner built itself is shut down by
        :meth:`shutdown`, while a caller-provided executor stays alive
        for reuse and remains the caller's to release.
    backend:
        Compute backend executing the per-tile sweeps (registry name or
        instance; ``None`` follows the grid's backend). Protected tiles
        are swept with the backend's fused sweep+checksum primitive, so
        each tile's verified checksum is produced by its own sweep —
        unless a fault-injection hook is active, in which case checksums
        are recomputed after injection as the paper's semantics require.
        The process executor resolves the backend *by name* inside each
        worker, so it requires a registered backend.
    """

    def __init__(
        self,
        grid: GridBase,
        parts: Sequence[int] | str = (2, 2),
        protector_factory: Optional[TileProtectorFactory] = None,
        executor=None,
        backend: BackendLike = None,
    ) -> None:
        self.grid = grid
        if isinstance(parts, str):
            if parts != "layers":
                raise ValueError(f"unknown decomposition {parts!r}")
            self.boxes = decompose_layers(grid.shape)
        else:
            self.boxes = decompose(grid.shape, parts)
        self._owns_executor = executor is None
        self.executor = executor if executor is not None else make_executor(None)
        self.backend = None if backend is None else get_backend(backend)
        self.protectors: Dict[tuple, Optional[OnlineABFT]] = {}
        if protector_factory is not None:
            for box in self.boxes:
                self.protectors[box.index] = protector_factory(box, grid)
        else:
            for box in self.boxes:
                self.protectors[box.index] = None
        self.radius = grid.spec.radius()
        self._const_shm = None
        self._const_name: Optional[str] = None
        # Compile-once warmup (no-op for the interpreted backends): a JIT
        # backend compiles — and writes to its on-disk cache — every
        # kernel this operator needs before the first step, so neither
        # the timed loop nor the pool's worker processes (which load the
        # cached artifacts instead of recompiling) pay the JIT cost
        # mid-run.
        warm_backend = self.backend if self.backend is not None else grid.backend
        warm_backend.warmup(
            grid.spec, grid.boundary, grid.dtype, radius=self.radius
        )

    # -- constructors ------------------------------------------------------------
    @classmethod
    def with_online_abft(
        cls,
        grid: GridBase,
        parts: Sequence[int] | str = (2, 2),
        executor=None,
        backend: BackendLike = None,
        **abft_kwargs,
    ) -> "TiledStencilRunner":
        """A runner whose every tile is protected by its own OnlineABFT."""

        def factory(box: TileBox, g: GridBase) -> OnlineABFT:
            return OnlineABFT(
                g.spec,
                g.boundary,
                box.shape,
                dtype=g.dtype,
                constant=tile_constant(g.constant, box),
                backend=backend,
                **abft_kwargs,
            )

        return cls(
            grid,
            parts,
            protector_factory=factory,
            executor=executor,
            backend=backend,
        )

    # -- shared-memory setup -------------------------------------------------------
    @property
    def uses_processes(self) -> bool:
        """Whether tile work is dispatched as shared-memory process tasks."""
        return hasattr(self.executor, "map_tiles")

    def _ensure_shared(self) -> None:
        """Migrate the grid (and constant) into shared memory, once."""
        if not self.grid.buffers.is_shared:
            self.grid.share_buffers()
        if self.grid.constant is not None and self._const_name is None:
            self._const_shm, self._const_name = share_array_copy(self.grid.constant)

    def shutdown(self) -> None:
        """Release the resources this runner created.

        Shuts down the executor only if the runner built it
        (``executor=None``); a caller-provided executor may be shared
        with other runners and stays alive.  Shared-memory blocks the
        runner migrated (grid buffers, constant) are always released —
        the grid keeps its contents on the heap.
        """
        if self._owns_executor and hasattr(self.executor, "shutdown"):
            self.executor.shutdown()
        if self._const_shm is not None:
            try:
                self._const_shm.close()
                self._const_shm.unlink()
            except (BufferError, FileNotFoundError, OSError):
                pass
            self._const_shm = None
            self._const_name = None
        self.grid.close_buffers()

    def __enter__(self) -> "TiledStencilRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- stepping ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return len(self.boxes)

    def _sweep_tiles_inprocess(
        self,
        be: Backend,
        src: np.ndarray,
        dst_interior: np.ndarray,
        fused: bool,
    ) -> Dict[tuple, Optional[dict]]:
        """Serial/thread path: closures sweep shared views in place."""
        grid = self.grid

        def sweep_tile(box: TileBox):
            ptile = padded_tile_view(src, box, self.radius)
            const = tile_constant(grid.constant, box)
            tile_out = dst_interior[box.slices]
            protector = self.protectors[box.index]
            if fused and protector is not None:
                new_tile, checksums = be.sweep_with_checksums(
                    ptile,
                    grid.spec,
                    self.radius,
                    box.shape,
                    protector.verify_axes(),
                    constant=const,
                    out=tile_out,
                    checksum_dtype=protector.checksum_dtype,
                )
            else:
                new_tile = be.sweep_padded(
                    ptile, grid.spec, self.radius, box.shape,
                    constant=const, out=tile_out,
                )
                checksums = None
            if new_tile is not tile_out:
                # Backend ignored ``out``: land the result in the buffer.
                tile_out[...] = new_tile
            return box.index, checksums

        return dict(self.executor.map(sweep_tile, self.boxes))

    def _sweep_tiles_processes(
        self, be: Backend, fused: bool
    ) -> Dict[tuple, Optional[dict]]:
        """Process path: ship shared-memory tile tasks, collect checksums."""
        grid = self.grid
        src_name, dst_name = grid.buffers.shm_names
        tasks = []
        for box in self.boxes:
            protector = self.protectors[box.index]
            axes = None
            cs_dtype = None
            if fused and protector is not None:
                axes = tuple(protector.verify_axes())
                if protector.checksum_dtype is not None:
                    cs_dtype = np.dtype(protector.checksum_dtype).str
            tasks.append(
                TileTask(
                    src_name=src_name,
                    dst_name=dst_name,
                    padded_shape=tuple(grid.buffers.padded_shape),
                    dtype_str=grid.dtype.str,
                    radius=tuple(self.radius),
                    spec=grid.spec,
                    box=box,
                    backend_name=be.name,
                    axes=axes,
                    checksum_dtype_str=cs_dtype,
                    const_name=self._const_name,
                    interior_shape=tuple(grid.shape),
                )
            )
        return dict(self.executor.map_tiles(tasks))

    def step(self, inject: Optional[InjectHook] = None) -> List[StepReport]:
        """One global sweep: per-tile sweeps, then per-tile verification.

        Returns one report per tile (empty report for unprotected tiles).
        """
        grid = self.grid
        be = self.backend if self.backend is not None else grid.backend
        # With an injection hook active, checksums fused into the sweep
        # would predate the injected fault and mask it — fall back to
        # post-injection checksum computation inside process().
        fused = inject is None

        if self.uses_processes:
            self._ensure_shared()
        src = grid.padded_current()  # persistent front buffer, ghosts refreshed
        if self.uses_processes:
            tile_checksums = self._sweep_tiles_processes(be, fused)
        else:
            dst_interior = interior_view(grid.back_padded, self.radius)
            tile_checksums = self._sweep_tiles_inprocess(
                be, src, dst_interior, fused
            )

        # Commit the new step on the grid (the buffer-pair swap shared
        # with Grid.step; per-tile checksums live in tile_checksums, not
        # on the grid).
        grid._commit(src, None)

        # Fault injection targets the freshly swept global domain, matching
        # the single-grid protectors' injection point.
        if inject is not None:
            inject(grid, grid.iteration)

        reports: List[StepReport] = []
        for box in self.boxes:
            protector = self.protectors[box.index]
            if protector is None:
                reports.append(
                    StepReport(iteration=grid.iteration, detection_performed=False)
                )
                continue
            tile_view = grid.u[box.slices]
            report = protector.process(
                tile_view,
                padded_tile_view(src, box, self.radius),
                grid.iteration,
                precomputed_checksums=tile_checksums[box.index],
            )
            reports.append(report)
        return reports

    def run(self, iterations: int, inject: Optional[InjectHook] = None) -> List[StepReport]:
        """Advance ``iterations`` sweeps; returns the flat list of tile reports."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        all_reports: List[StepReport] = []
        for _ in range(iterations):
            all_reports.extend(self.step(inject=inject))
        return all_reports

    # -- bookkeeping -----------------------------------------------------------------
    def total_detected(self) -> int:
        return sum(
            p.total_detections for p in self.protectors.values() if p is not None
        )

    def total_corrected(self) -> int:
        return sum(
            p.total_corrections for p in self.protectors.values() if p is not None
        )

    def tile_of(self, point: Sequence[int]) -> TileBox:
        """The tile containing a global domain index."""
        for box in self.boxes:
            if box.contains(point):
                return box
        raise ValueError(f"point {tuple(point)} is outside the domain")
