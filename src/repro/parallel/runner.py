"""Tiled runner with per-tile ABFT protection.

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
iteration.  Tiles are closures over the grid's buffer pair, run on the
serial or the thread executor: NumPy and the compiled kernels release
the GIL inside their loops, so threads overlap on multi-core machines.
A process executor is refused, since a closure over the pair can reach
no other process.

Corrections write straight into the tile's view of the global array, so
a corrected tile is immediately consistent for the next iteration's halo
reads by its neighbours.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.backends import Backend, get_backend
from repro.backends.registry import BackendLike
from repro.core.online import OnlineABFT
from repro.core.protector import InjectHook, StepReport
from repro.parallel.decomposition import TileBox, decompose, decompose_layers
from repro.parallel.executor import ProcessPoolTileExecutor, make_executor
from repro.parallel.halo import padded_tile_view, tile_constant
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
        Tile executor: a :class:`SerialExecutor` or a
        :class:`~repro.parallel.executor.ThreadPoolTileExecutor`.
        ``None`` builds one through
        :func:`~repro.parallel.executor.make_executor`'s default chain
        (``--executor`` / ``REPRO_EXECUTOR``, else serial); an executor
        the runner built itself is shut down by :meth:`shutdown`, while
        a caller-provided executor stays alive for reuse and remains the
        caller's to release.  A
        :class:`~repro.parallel.executor.ProcessPoolTileExecutor`,
        passed in or resolved, raises ``ValueError``: each tile is a
        closure over the grid's buffer pair, which a worker process can
        neither unpickle nor reach.
    backend:
        Compute backend executing the per-tile sweeps (registry name or
        instance; ``None`` follows the grid's backend). Each protected
        tile's verified checksum is reduced by the backend right after
        the tile's sweep, on the executor that swept it — unless a
        fault-injection hook is active, in which case
        :meth:`OnlineABFT.process` reduces it after injection, as the
        paper's semantics require.
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
        if isinstance(self.executor, ProcessPoolTileExecutor):
            raise ValueError(
                "TiledStencilRunner cannot run tiles on a process executor: "
                "each tile is a closure over the grid's buffer pair, which "
                "a worker process can neither unpickle nor reach; use the "
                "'serial' or 'threads' executor (check --executor / "
                "REPRO_EXECUTOR when the runner resolves its own)"
            )
        self.backend = None if backend is None else get_backend(backend)
        self.protectors: Dict[tuple, Optional[OnlineABFT]] = {}
        if protector_factory is not None:
            for box in self.boxes:
                self.protectors[box.index] = protector_factory(box, grid)
        else:
            for box in self.boxes:
                self.protectors[box.index] = None
        self.radius = grid.spec.radius()
        # Build or load the backend's compiled kernels (the fused
        # backend's native library) before the first step, so the timed
        # loop never runs the compiler.
        warm_backend = self.backend if self.backend is not None else grid.backend
        warm_backend.warmup()

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

    def shutdown(self) -> None:
        """Shut down the executor if the runner built it (``executor=None``).

        A caller-provided executor may be shared with other runners and
        stays alive.
        """
        if self._owns_executor:
            self.executor.shutdown()

    def __enter__(self) -> "TiledStencilRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- stepping ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return len(self.boxes)

    def _sweep_tiles(
        self,
        be: Backend,
        src: np.ndarray,
        dst_interior: np.ndarray,
        reduce_tiles: bool,
    ) -> Dict[tuple, Optional[dict]]:
        """Sweep every tile in place; returns ``{tile index: checksums}``.

        Each tile sweeps its halo-extended view of ``src`` into its
        slice of ``dst_interior``, then reduces the new tile's checksum
        along each of its protector's verify axes on the same worker.
        The map is ``None`` for an unprotected tile, and for every tile
        when ``reduce_tiles`` is off (a step with an inject hook, whose
        checksums :meth:`OnlineABFT.process` takes after the hook).
        """
        grid = self.grid

        def run_tile(box: TileBox):
            tile_out = dst_interior[box.slices]
            new = be.sweep_padded(
                padded_tile_view(src, box, self.radius),
                grid.spec,
                self.radius,
                box.shape,
                constant=tile_constant(grid.constant, box),
                out=tile_out,
            )
            if new is not tile_out:
                # Backend ignored ``out`` (copy-based fallback): land it.
                tile_out[...] = new
            protector = self.protectors[box.index]
            if not reduce_tiles or protector is None:
                return box.index, None
            return box.index, {
                axis: be.checksum(new, axis, dtype=protector.checksum_dtype)
                for axis in protector.verify_axes()
            }

        return dict(self.executor.map(run_tile, self.boxes))

    def step(self, inject: Optional[InjectHook] = None) -> List[StepReport]:
        """One global sweep: per-tile sweeps, then per-tile verification.

        Returns one report per tile (empty report for unprotected tiles).
        """
        grid = self.grid
        be = self.backend if self.backend is not None else grid.backend
        # Tiles reduce their checksums where they are swept, unless an
        # injection hook is set: checksums taken before the hook would
        # mask its fault, so process() reduces each tile after it.
        reduce_tiles = inject is None

        src = grid.padded_current()  # persistent front buffer, ghosts refreshed
        tile_checksums = self._sweep_tiles(
            be, src, interior_view(grid.back_padded, self.radius), reduce_tiles
        )

        # Commit the new step on the grid (the buffer-pair swap shared
        # with Grid.step).
        grid._commit(src)

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
