"""Triple modular redundancy (TMR) baseline.

TMR executes every sweep three times from the same input and votes on
the outputs element-wise. A single transient fault corrupts at most one
replica, so the majority value is correct. The paper cites TMR as "the
most general and non-intrusive approach" but "prohibitively expensive in
terms of additional required computing resources and time" (Sections 1
and 2) — the overhead benchmark quantifies that ~3x cost next to ABFT's
few percent.

Fault-model note: the injection hook corrupts the grid's freshly swept
domain, which plays the role of replica 1; the two redundant replicas
are recomputed from the (still intact) previous padded state.

The redundant replicas run through the compute backend the grid steps
on (``get_backend().sweep_padded``), into two
*persistent* replica buffers,
so a TMR step costs exactly two extra backend sweeps — no per-replica
padding and no per-replica full-domain allocation beyond the two
buffers the protector owns for its lifetime.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends import get_backend
from repro.core.protector import InjectHook, Protector, StepReport
from repro.stencil.grid import GridBase

__all__ = ["TMRProtector"]


class TMRProtector(Protector):
    """Detect and correct SDCs by executing every sweep three times.

    Parameters
    ----------
    rtol:
        Relative tolerance used when comparing replicas; replicas are
        recomputed from identical inputs with identical operation order,
        so any disagreement beyond exact equality indicates corruption.
        A small tolerance keeps the comparison robust if a future
        executor reorders reductions.
    """

    name = "tmr"

    def __init__(self, rtol: float = 0.0) -> None:
        self.rtol = float(rtol)
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self._replicas = None

    def reset(self) -> None:
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self._replicas = None

    def _replica_buffers(self, like: np.ndarray):
        """Two persistent replica output buffers matching the domain."""
        if (
            self._replicas is None
            or self._replicas[0].shape != like.shape
            or self._replicas[0].dtype != like.dtype
        ):
            self._replicas = (np.empty_like(like), np.empty_like(like))
        return self._replicas

    def _disagrees(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.rtol == 0.0:
            return x != y
        scale = np.maximum(np.abs(x), np.abs(y))
        return np.abs(x - y) > self.rtol * np.maximum(scale, 1e-30)

    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        grid.step()
        if inject is not None:
            inject(grid, grid.iteration)
        padded_prev = grid.previous_padded

        # Replicas 2 and 3 re-run the sweep on the grid's backend from
        # the already-padded previous buffer into persistent output
        # buffers: two extra backend sweeps, zero extra padding and zero
        # per-step full-domain allocations.
        backend = get_backend()
        buf_2, buf_3 = self._replica_buffers(grid.u)
        replica_1 = grid.u
        replica_2 = backend.sweep_padded(
            padded_prev, grid.spec, grid.radius, grid.shape,
            constant=grid.constant, out=buf_2,
        )
        replica_3 = backend.sweep_padded(
            padded_prev, grid.spec, grid.radius, grid.shape,
            constant=grid.constant, out=buf_3,
        )

        report = StepReport(iteration=grid.iteration, detection_performed=True)

        # Majority vote: replicas 2 and 3 are recomputed from clean input,
        # so wherever they agree with each other but not with replica 1,
        # replica 1 was corrupted.
        mismatch_12 = self._disagrees(replica_1, replica_2)
        mismatch_13 = self._disagrees(replica_1, replica_3)
        mismatch_23 = self._disagrees(replica_2, replica_3)

        corrupted = mismatch_12 & mismatch_13 & ~mismatch_23
        undecided = mismatch_12 & mismatch_13 & mismatch_23

        n_corrupted = int(np.count_nonzero(corrupted))
        n_undecided = int(np.count_nonzero(undecided))
        report.errors_detected = n_corrupted + n_undecided
        if n_corrupted:
            replica_1[corrupted] = replica_2[corrupted]
            report.errors_corrected = n_corrupted
        report.errors_uncorrected = n_undecided

        self.total_detections += report.errors_detected
        self.total_corrections += report.errors_corrected
        self.total_uncorrected += report.errors_uncorrected
        return report
