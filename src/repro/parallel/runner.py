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
no other process.  Every tile task runs on the compute backend
(:func:`~repro.backends.get_backend`).

Corrections write straight into the tile's view of the global array, so
a corrected tile is immediately consistent for the next iteration's halo
reads by its neighbours.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.backends import get_backend
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

    Notes
    -----
    Every tile is swept first; then a fault-injection hook, if any,
    strikes the new global domain; then :meth:`OnlineABFT.process`
    verifies every protected tile on the executor, reducing the tile's
    checksum itself, so each checksum sees the hook's faults, as the
    paper's semantics require.
    """

    def __init__(
        self,
        grid: GridBase,
        parts: Sequence[int] | str = (2, 2),
        protector_factory: Optional[TileProtectorFactory] = None,
        executor=None,
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
        self.protectors: Dict[tuple, Optional[OnlineABFT]] = {
            box.index: (
                None if protector_factory is None else protector_factory(box, grid)
            )
            for box in self.boxes
        }
        self.radius = grid.spec.radius()
        # Build or load the backend's compiled kernels (the fused
        # backend's native library) before the first step, so the timed
        # loop never runs the compiler.
        get_backend().warmup()

    # -- constructors ------------------------------------------------------------
    @classmethod
    def with_online_abft(
        cls,
        grid: GridBase,
        parts: Sequence[int] | str = (2, 2),
        executor=None,
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
                **abft_kwargs,
            )

        return cls(grid, parts, protector_factory=factory, executor=executor)

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

    def step(self, inject: Optional[InjectHook] = None) -> List[StepReport]:
        """One global sweep: per-tile sweeps, the hook, per-tile verification.

        Each tile sweeps its halo-extended view of the front buffer into
        its slice of the back buffer; after the commit and the hook, its
        protector verifies that slice against the previous values, so
        tiles never read each other's new values and every task can run
        on any worker.

        Returns one report per tile (empty report for unprotected tiles).
        """
        grid = self.grid
        be = get_backend()
        src = grid.padded_current()  # persistent front buffer, ghosts refreshed
        # The tiles' new values, which the commit below turns into grid.u.
        new_u = interior_view(grid.back_padded, self.radius)
        iteration = grid.iteration + 1

        def sweep(box: TileBox) -> None:
            be.sweep_padded(
                padded_tile_view(src, box, self.radius),
                grid.spec,
                self.radius,
                box.shape,
                constant=tile_constant(grid.constant, box),
                out=new_u[box.slices],
            )

        def verify(box: TileBox) -> StepReport:
            protector = self.protectors[box.index]
            if protector is None:
                return StepReport(iteration=iteration, detection_performed=False)
            return protector.process(
                new_u[box.slices], padded_tile_view(src, box, self.radius), iteration
            )

        self.executor.map(sweep, self.boxes)
        grid._commit(src)
        if inject is not None:
            # Fault injection targets the freshly swept global domain,
            # matching the single-grid protectors' injection point.
            inject(grid, grid.iteration)
        return self.executor.map(verify, self.boxes)

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
