"""Offline ABFT protector (Section 4 of the paper).

The offline variant detects errors only every Δ iterations (or once at
the end of the run). Between detections it records, for each sweep, the
tiny boundary-strip sums needed to replay the checksum interpolation;
at detection time it

1. computes the checksum of the current domain directly,
2. replays the Theorem-1 interpolation Δ times starting from the
   checksum stored with the last checkpoint (Figure 7 of the paper),
3. compares the two; on mismatch it rolls back to the last verified
   checkpoint and recomputes the whole window (Section 4.2 —
   checkpoint/rollback recovery is the correction mechanism, the
   checksums alone cannot correct offline), and
4. takes a fresh checkpoint of the now-verified state.

Deviation from the paper's reference implementation: the paper's offline
listing (Figure 7) drops the α/β boundary terms, which is exact only for
symmetric-weight stencils with bounce-back boundaries. This
implementation records the exact strips by default
(``track_strips=True``); disabling it reproduces the simplified
behaviour of Equations (8)-(9).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.backends import get_backend
from repro.backends.registry import BackendLike
from repro.checkpoint.recovery import rollback_and_recompute
from repro.checkpoint.snapshot import Snapshot
from repro.core.checksums import constant_checksum
from repro.core.detection import detect_errors
from repro.core.interpolation import (
    extract_delta_strips,
    interpolate_checksum_reduced,
)
from repro.core.protector import InjectHook, Protector, StepReport
from repro.core.thresholds import recommend_epsilon
from repro.stencil.boundary import BoundarySpec
from repro.stencil.grid import GridBase
from repro.stencil.spec import StencilSpec

__all__ = ["OfflineABFT"]


class OfflineABFT(Protector):
    """Periodic checksum detection coupled with checkpoint/rollback recovery.

    Parameters
    ----------
    spec, boundary, shape, dtype, constant:
        As for :class:`repro.core.online.OnlineABFT`.
    period:
        Detection (and checkpoint) period Δ in iterations. The paper's
        experiments use Δ = 16.
    epsilon:
        Detection threshold ε. Defaults to
        :func:`repro.core.thresholds.recommend_epsilon` with the given
        period (the replayed interpolation accumulates round-off over Δ
        steps, so the default grows slowly with Δ).
    verify_axis:
        Which checksum is verified (0 → column checksum ``b``, default).
    track_strips:
        Record exact α/β strips every sweep (default) or use the
        simplified interpolation of Eqs. (8)-(9).
    max_recovery_attempts:
        Upper bound on consecutive rollback attempts for one detection
        window (guards against persistent-fault livelock).
    metadata_self_check:
        Guard the protector's own state against corruption (default on).
        The checkpoint's working checksum is validated against its
        independent duplicate before every replay (the duplicate rule of
        :meth:`~repro.checkpoint.snapshot.Snapshot.verify`); on mismatch
        it is recomputed from the checkpoint interior instead of being
        trusted. Without this, a bit flip striking the
        *stored checksum* (rather than the domain) drives futile
        rollback/recompute cycles of perfectly healthy data until
        ``max_recovery_attempts`` is exhausted. Repairs are counted in
        ``total_metadata_repairs``.
    checksum_dtype:
        Accumulation dtype for checksums. Defaults to ``numpy.float64``
        so that the Δ-step replay does not itself drift past ε — a
        documented deviation from the paper's float32 checksums (see
        EXPERIMENTS.md).
    backend:
        Compute backend (registry name or instance) used for the sweeps
        and checksums. ``None`` follows the grid's backend. On the sweep
        that closes a detection window (and only there — intermediate
        sweeps need no checksum) the fused sweep+checksum primitive
        produces the verified checksum together with the sweep, unless a
        fault-injection hook is active (the hook must be able to corrupt
        the domain *before* the checksum is taken).
    """

    name = "offline-abft"

    def __init__(
        self,
        spec: StencilSpec,
        boundary: BoundarySpec,
        shape,
        dtype=np.float32,
        constant: Optional[np.ndarray] = None,
        period: int = 16,
        epsilon: Optional[float] = None,
        verify_axis: int = 0,
        track_strips: bool = True,
        max_recovery_attempts: int = 3,
        metadata_self_check: bool = True,
        checksum_dtype=np.float64,
        backend: BackendLike = None,
    ) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if verify_axis not in (0, 1):
            raise ValueError("verify_axis must be 0 (column) or 1 (row)")
        self.spec = spec
        self.boundary = BoundarySpec.from_any(boundary, spec.ndim)
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) != spec.ndim:
            raise ValueError(
                f"shape {self.shape} does not match stencil dimensionality {spec.ndim}"
            )
        self.dtype = np.dtype(dtype)
        self.checksum_dtype = None if checksum_dtype is None else np.dtype(checksum_dtype)
        self.period = int(period)
        self.verify_axis = verify_axis
        self.track_strips = bool(track_strips)
        self.radius = spec.radius()
        self.max_recovery_attempts = int(max_recovery_attempts)
        self.metadata_self_check = bool(metadata_self_check)
        self.backend = None if backend is None else get_backend(backend)
        if epsilon is None:
            # As for the online protector, the margin is governed by the
            # domain dtype; the period enters because the interpolation is
            # replayed Δ times before each comparison.
            epsilon = recommend_epsilon(
                self.shape, verify_axis, self.dtype, spec, period=self.period
            )
        self.epsilon = float(epsilon)
        cs_dtype = self.checksum_dtype or self.dtype
        self._constant_sum = constant_checksum(
            constant, verify_axis, self.shape, cs_dtype
        )
        self._n_reduce = self.shape[verify_axis]
        #: The last verified state: interior plus duplicated checksum.
        self.checkpoint: Optional[Snapshot] = None
        self._strips: List[Dict[int, np.ndarray]] = []
        self._since_checkpoint = 0
        self._pending_cs: Optional[np.ndarray] = None
        # Statistics exposed for the experiments.
        self.total_detections = 0
        self.total_rollbacks = 0
        self.total_recomputed_iterations = 0
        self.total_metadata_repairs = 0

    # -- construction helpers -------------------------------------------------
    @classmethod
    def for_grid(cls, grid: GridBase, **kwargs) -> "OfflineABFT":
        """Build a protector matching a grid's operator, boundary and shape."""
        return cls(
            grid.spec,
            grid.boundary,
            grid.shape,
            dtype=grid.dtype,
            constant=grid.constant,
            **kwargs,
        )

    # -- protector interface ---------------------------------------------------
    def reset(self) -> None:
        self.checkpoint = None
        self._strips = []
        self._since_checkpoint = 0
        self._pending_cs = None
        self.total_detections = 0
        self.total_rollbacks = 0
        self.total_recomputed_iterations = 0
        self.total_metadata_repairs = 0

    def _checksum(self, u: np.ndarray) -> np.ndarray:
        be = self.backend if self.backend is not None else get_backend()
        return be.checksum(u, self.verify_axis, dtype=self.checksum_dtype)

    def _record_strips(self, grid: GridBase) -> None:
        # ``previous_padded`` is a live view into the grid's buffer pair
        # and will be overwritten by the next sweep; extract_delta_strips
        # reduces it into small freshly allocated vectors, so the strips
        # stored across the detection window never alias the buffers.
        if not self.track_strips:
            self._strips.append({})
            return
        strips = extract_delta_strips(
            grid.previous_padded, self.spec, self.radius, self.shape, self.verify_axis
        )
        self._strips.append(strips)

    def _take_checkpoint(self, grid: GridBase, cs: Optional[np.ndarray] = None) -> None:
        # ``cs`` lets a caller that just verified the domain reuse its
        # computed checksum instead of paying another reduction pass.
        if cs is None:
            cs = self._checksum(grid.u)
        self.checkpoint = grid.snapshot().seal(cs)
        self._strips = []
        self._since_checkpoint = 0

    def _replay_interpolation(self) -> np.ndarray:
        """Interpolate the checkpoint checksum forward through the window.

        With the self-check on, the checkpoint checksum first passes the
        duplicate rule: a copy mismatch means a fault struck the
        metadata, not the domain, so the checksum is recomputed from the
        checkpoint interior (no payload check — that would cost a
        reduction pass per window) and a corrupted checksum never drives
        futile rollbacks of healthy data.
        """
        ckpt = self.checkpoint
        if self.metadata_self_check and ckpt.verify(self._checksum, payload=False):
            self.total_metadata_repairs += 1
        cs = ckpt.checksum
        for strips in self._strips:
            cs = interpolate_checksum_reduced(
                cs,
                self.spec,
                self.boundary,
                self.verify_axis,
                self._n_reduce,
                deltas=strips if self.track_strips else None,
                constant_sum=self._constant_sum,
            )
        return cs

    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        if grid.shape != self.shape:
            raise ValueError(
                f"grid shape {grid.shape} does not match protector shape {self.shape}"
            )
        if self.checkpoint is None:
            # Initial verified state (t = 0 data assumed correct).
            self._take_checkpoint(grid)
        closes_window = self._since_checkpoint + 1 >= self.period
        if (
            inject is None
            and closes_window
            and hasattr(grid, "step_with_checksums")
        ):
            # The sweep that ends the detection window also produces the
            # checksum that will be verified — the fused kernel path.
            _, checksums = grid.step_with_checksums(
                (self.verify_axis,),
                checksum_dtype=self.checksum_dtype,
                backend=self.backend,
            )
            self._pending_cs = checksums[self.verify_axis]
        else:
            grid.step(backend=self.backend)
            if inject is not None:
                inject(grid, grid.iteration)
        self._record_strips(grid)
        self._since_checkpoint += 1

        if self._since_checkpoint >= self.period:
            return self._verify_and_recover(grid, inject)
        return StepReport(iteration=grid.iteration, detection_performed=False)

    def finalize(self, grid: GridBase) -> Optional[StepReport]:
        """Verify any partially filled detection window at the end of the run."""
        if self._since_checkpoint == 0 or self.checkpoint is None:
            return None
        return self._verify_and_recover(grid, None)

    # -- detection + recovery ---------------------------------------------------
    def _verify_and_recover(
        self, grid: GridBase, inject: Optional[InjectHook]
    ) -> StepReport:
        report = StepReport(iteration=grid.iteration, detection_performed=True)
        attempts = 0
        while True:
            if self._pending_cs is not None:
                # Checksum produced by the fused window-closing sweep;
                # valid only for the domain as the sweep left it, so it
                # is consumed once and recomputed after any rollback.
                cs_comp = self._pending_cs
                self._pending_cs = None
            else:
                cs_comp = self._checksum(grid.u)
            cs_pred = self._replay_interpolation()
            detection = detect_errors(cs_comp, cs_pred, self.epsilon)
            report.max_relative_error = max(
                report.max_relative_error, detection.max_relative_error
            )
            if not detection.detected:
                break
            if attempts == 0:
                report.errors_detected = detection.n_errors
                self.total_detections += detection.n_errors
            attempts += 1
            if attempts > self.max_recovery_attempts:
                report.errors_uncorrected = detection.n_errors
                break
            window = self._since_checkpoint
            self._strips = []
            recomputed = rollback_and_recompute(
                grid,
                self.checkpoint,
                window,
                inject=inject,
                on_step=self._record_strips,
                backend=self.backend,
            )
            report.rollback = True
            report.recomputed_iterations += recomputed
            self.total_rollbacks += 1
            self.total_recomputed_iterations += recomputed
            # Loop back to re-verify the recomputed window.
        report.errors_corrected = max(
            0, report.errors_detected - report.errors_uncorrected
        )
        # ``cs_comp`` matches grid.u whenever the loop exited clean; on an
        # uncorrectable exit the domain was not modified after cs_comp
        # either, so the checksum can seed the next checkpoint unchanged.
        self._take_checkpoint(grid, cs=cs_comp)
        return report
