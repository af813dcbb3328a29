"""Rollback-and-recompute recovery.

When the offline detector flags a corrupted detection window, the domain
is restored from the last verified checkpoint and the window is
recomputed (Section 4.2 of the paper). Recomputation uses plain stencil
sweeps; transient faults (the paper's single bit-flips) do not reoccur,
so the recomputed window is clean.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.checkpoint.snapshot import Snapshot

if TYPE_CHECKING:  # the grid module imports this package: no runtime cycle
    from repro.stencil.grid import GridBase

__all__ = ["rollback_and_recompute"]

#: Called after every recomputed sweep: ``callback(grid)``.
StepCallback = Callable[["GridBase"], None]


def rollback_and_recompute(
    grid: GridBase,
    checkpoint: Snapshot,
    iterations: int,
    inject: Optional[Callable[[GridBase, int], None]] = None,
    on_step: Optional[StepCallback] = None,
    backend=None,
) -> int:
    """Restore ``grid`` from ``checkpoint`` and recompute ``iterations`` sweeps.

    Parameters
    ----------
    grid:
        The grid to recover (modified in place).
    checkpoint:
        A verified snapshot whose iteration precedes the corrupted
        window.
    iterations:
        Number of sweeps between the checkpoint and the detection point.
    inject:
        Optional fault-injection hook, forwarded so that *persistent*
        fault models can re-strike during recomputation (the paper's
        one-shot bit-flips never re-fire).
    on_step:
        Optional callback invoked after every recomputed sweep — the
        offline protector uses it to re-record the boundary strips it
        needs for re-verification.
    backend:
        Optional compute backend (name or instance) for the recomputed
        sweeps. The offline protector forwards its own backend so the
        replayed window uses the same numerics as the original sweeps;
        ``None`` uses the grid's backend.

    Returns
    -------
    int
        The number of recomputed sweeps (equal to ``iterations``).
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    grid.restore(checkpoint)
    for _ in range(iterations):
        grid.step(backend=backend)
        if inject is not None:
            inject(grid, grid.iteration)
        if on_step is not None:
            on_step(grid)
    return iterations
