"""Online ABFT protector (Section 3 of the paper).

After every stencil sweep the online protector

1. computes **one** checksum vector of the new domain (the column
   checksum ``b`` by default, as in the paper's Figure 2 listing),
2. interpolates the same checksum from the previous step's checksum
   using Theorem 1,
3. compares the two element-wise (Section 3.4); and, only if a mismatch
   is found,
4. lazily computes the *other* checksum pair (from the still-alive
   previous domain and from the corrupted new domain), locates the
   corrupted point(s) from the row/column mismatch pattern and corrects
   them in place using Eq. 10 (Section 3.5), patching the checksums so
   that the next iteration starts from a consistent state.

The "only one checksum per iteration" recommendation of Section 3.2 is
the default; ``eager_row_checksum=True`` computes both every iteration
(the ablation benchmark compares the two).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends import ChecksumMap, get_backend
from repro.backends.registry import BackendLike
from repro.checkpoint.snapshot import ProtectorState
from repro.core.checksums import constant_checksum
from repro.core.correction import correct_errors, match_detections
from repro.core.detection import detect_errors
from repro.core.interpolation import interpolate_checksum_padded
from repro.core.protector import InjectHook, Protector, StepReport
from repro.core.thresholds import recommend_epsilon
from repro.stencil.boundary import BoundarySpec
from repro.stencil.grid import GridBase
from repro.stencil.spec import StencilSpec

__all__ = ["OnlineABFT"]

_ROW_AXIS = 1     # row checksum a reduces over y
_COLUMN_AXIS = 0  # column checksum b reduces over x


class OnlineABFT(Protector):
    """Detect and correct silent data corruptions after every sweep.

    Parameters
    ----------
    spec:
        The stencil operator of the protected computation.
    boundary:
        Boundary specification of the protected domain.
    shape:
        Domain shape (2D ``(nx, ny)`` or 3D ``(nx, ny, nz)``).
    dtype:
        Domain dtype.
    constant:
        Optional constant term ``C`` of the sweep (its checksums are
        pre-computed once, as in the proof of Theorem 1).
    epsilon:
        Detection threshold ε. Defaults to
        :func:`repro.core.thresholds.recommend_epsilon` for the given
        configuration (1e-5 for paper-scale float32 domains).
    verify_axis:
        Which checksum is computed and verified every iteration:
        0 → column checksum ``b`` (paper default), 1 → row checksum ``a``.
    correction_strategy:
        ``"average"`` (paper default), ``"row"`` or ``"column"``.
    eager_row_checksum:
        Compute both checksums every iteration instead of lazily on
        detection (ablation switch).
    checksum_dtype:
        Accumulation dtype for checksums. Defaults to ``numpy.float64``:
        accumulating the float32 domain in double precision keeps the
        round-off discrepancy between the computed and the interpolated
        checksum orders of magnitude below the paper's ε = 1e-5, which
        removes the false-positive risk the paper manages by tuning tile
        sizes (Section 5.1). Pass ``None`` to accumulate in the domain
        dtype exactly as the paper's fused float32 kernel does (the
        ablation benchmark compares the two).
    refresh_checksums:
        After correcting a point, recompute the affected checksum entries
        directly from the repaired domain instead of only patching them
        (the paper's Figure 6 patches). Patching a checksum that briefly
        held a huge corrupted value leaves a large cancellation residue
        in float32, which can trigger spurious detections on later
        iterations; the refresh costs one row/column sum per corrected
        point and avoids that. Set to ``False`` to reproduce the paper's
        listing exactly.
    metadata_self_check:
        Guard the protector's own state against corruption (default on).
        Every stored previous-step checksum is kept twice; before it is
        used for interpolation the two copies are compared, and on
        mismatch the checksum is recomputed from the still-alive
        previous domain instead of being trusted. Without this, a bit
        flip striking the *stored checksum* (rather than the domain)
        triggers a one-sided detection and a bogus correction of healthy
        data. Repairs are counted in ``total_metadata_repairs``.
    backend:
        Compute backend (registry name or instance) used for the fused
        sweep+checksum step and for any checksum the protector computes
        itself. ``None`` follows the grid's backend (which in turn
        defaults to the process-wide selection).

    Notes
    -----
    When :meth:`step` is called without a fault-injection hook the sweep
    and the verified checksum come from the backend's *fused*
    ``sweep_with_checksums`` primitive — the checksum is produced by the
    sweep itself, as in the paper's fused float32 kernel. With an
    ``inject`` hook the checksum is recomputed from the (possibly
    corrupted) domain after the hook runs, preserving the paper's
    injection semantics ("after the stencil point ... has been updated");
    a checksum fused into the sweep would otherwise be blind to a fault
    landing between the sweep and the verification.

    Both paths are compatible with the grids' in-place buffer pair: the
    verified checksum always reflects the buffer contents at verification
    time (fused checksums are produced *by* the write into the buffer;
    the injection path re-reduces the buffer after the hook mutated it),
    and corrections write back through ``grid.u`` into the same buffer
    the next sweep's ghost refresh re-reads.
    """

    name = "online-abft"

    def __init__(
        self,
        spec: StencilSpec,
        boundary: BoundarySpec,
        shape,
        dtype=np.float32,
        constant: Optional[np.ndarray] = None,
        epsilon: Optional[float] = None,
        verify_axis: int = _COLUMN_AXIS,
        correction_strategy: str = "average",
        eager_row_checksum: bool = False,
        checksum_dtype=np.float64,
        refresh_checksums: bool = True,
        metadata_self_check: bool = True,
        backend: BackendLike = None,
    ) -> None:
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
        self.verify_axis = verify_axis
        self.other_axis = 1 - verify_axis
        self.correction_strategy = correction_strategy
        self.eager_row_checksum = bool(eager_row_checksum)
        self.refresh_checksums = bool(refresh_checksums)
        self.metadata_self_check = bool(metadata_self_check)
        self.backend = None if backend is None else get_backend(backend)
        self.radius = spec.radius()
        if epsilon is None:
            # The detection margin is governed by the *domain* dtype (the
            # sweep rounds every point in that precision); the checksum
            # accumulation dtype only tightens it further.
            epsilon = recommend_epsilon(self.shape, verify_axis, self.dtype, spec)
        self.epsilon = float(epsilon)
        cs_dtype = self.checksum_dtype or self.dtype
        self._constant_sums = {
            axis: constant_checksum(constant, axis, self.shape, cs_dtype)
            for axis in (0, 1)
        }
        self._prev_cs = {0: None, 1: None}
        self._prev_cs_dup = {0: None, 1: None}
        # Statistics exposed for the experiments.
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self.total_metadata_repairs = 0

    # -- construction helpers -------------------------------------------------
    @classmethod
    def for_grid(cls, grid: GridBase, **kwargs) -> "OnlineABFT":
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
        self._prev_cs = {0: None, 1: None}
        self._prev_cs_dup = {0: None, 1: None}
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self.total_metadata_repairs = 0

    def state_snapshot(self) -> ProtectorState:
        """Checkpointable protector state (buddy checkpointing).

        Captures the stored previous-step checksum vectors and the four
        running counters — everything :meth:`state_restore` needs to
        resume verification bit-for-bit from a rolled-back domain.  The
        self-check duplicates are not shipped: restore re-derives them
        through :meth:`_store_prev_cs`, so a checkpointed protector is
        always internally consistent.
        """
        return ProtectorState(
            prev_cs={
                axis: (None if cs is None else cs.copy())
                for axis, cs in self._prev_cs.items()
            },
            counters=(
                self.total_detections,
                self.total_corrections,
                self.total_uncorrected,
                self.total_metadata_repairs,
            ),
        )

    def state_restore(self, state: ProtectorState) -> None:
        """Restore :meth:`state_snapshot` state (rollback recovery)."""
        for axis in (0, 1):
            cs = state.prev_cs.get(axis)
            self._store_prev_cs(axis, None if cs is None else cs.copy())
        (
            self.total_detections,
            self.total_corrections,
            self.total_uncorrected,
            self.total_metadata_repairs,
        ) = (int(c) for c in state.counters)

    def _checksum(self, u: np.ndarray, axis: int) -> np.ndarray:
        be = self.backend if self.backend is not None else get_backend()
        return be.checksum(u, axis, dtype=self.checksum_dtype)

    def _store_prev_cs(self, axis: int, cs: Optional[np.ndarray]) -> None:
        """Store a previous-step checksum (plus its self-check duplicate).

        Every write to the stored checksum state must go through here —
        the duplicate is what lets :meth:`_checked_prev_cs` notice that a
        fault struck the metadata itself.
        """
        self._prev_cs[axis] = cs
        if cs is None or not self.metadata_self_check:
            self._prev_cs_dup[axis] = None
        else:
            self._prev_cs_dup[axis] = cs.copy()

    def _checked_prev_cs(self, axis: int, prev_u: np.ndarray) -> np.ndarray:
        """The stored previous-step checksum, validated against its duplicate.

        On mismatch (a fault hit the stored metadata, not the domain) the
        checksum is recomputed from the still-alive previous domain and
        re-stored, so a corrupted checksum never drives a bogus
        detection/correction of healthy data.
        """
        cs = self._prev_cs[axis]
        dup = self._prev_cs_dup[axis]
        if (
            self.metadata_self_check
            and cs is not None
            and dup is not None
            and not np.array_equal(cs, dup)
        ):
            self.total_metadata_repairs += 1
            cs = self._checksum(prev_u, axis)
            self._store_prev_cs(axis, cs)
        return cs

    def verify_axes(self):
        """Axes whose checksums each sweep must produce for this protector."""
        if self.eager_row_checksum:
            return (self.verify_axis, self.other_axis)
        return (self.verify_axis,)

    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        if grid.shape != self.shape:
            raise ValueError(
                f"grid shape {grid.shape} does not match protector shape {self.shape}"
            )
        verify, other = self.verify_axis, self.other_axis
        # Initial checksums (step t=0 data assumed correct, as in Theorem 2).
        if self._prev_cs[verify] is None:
            self._store_prev_cs(verify, self._checksum(grid.u, verify))
            if self.eager_row_checksum:
                self._store_prev_cs(other, self._checksum(grid.u, other))

        if inject is None and hasattr(grid, "step_with_checksums"):
            # Fault-free fast path: the sweep produces the verified
            # checksum itself (the paper's fused kernel).
            _, checksums = grid.step_with_checksums(
                self.verify_axes(),
                checksum_dtype=self.checksum_dtype,
                backend=self.backend,
            )
            return self.process(
                grid.u,
                grid.previous_padded,
                grid.iteration,
                precomputed_checksums=checksums,
            )

        grid.step(backend=self.backend)
        if inject is not None:
            inject(grid, grid.iteration)
        return self.process(grid.u, grid.previous_padded, grid.iteration)

    def process(
        self,
        u_new: np.ndarray,
        padded_prev: np.ndarray,
        iteration: int,
        precomputed_checksums: Optional[ChecksumMap] = None,
    ) -> StepReport:
        """Verify (and correct) a freshly swept domain.

        This is the grid-independent core of the protector: ``u_new`` is
        the interior produced by the sweep, ``padded_prev`` is the
        ghost-padded step-``t`` domain the sweep read (its ghost cells may
        come from a closed boundary condition *or* from halo exchange with
        neighbouring tiles/ranks — the interpolation handles both
        identically).  The parallel tile runner calls this directly, one
        call per tile, and so does the distributed runner, one call per
        rank with the rank's pre-swap front buffer as ``padded_prev`` and
        the fused per-rank checksums as ``precomputed_checksums``.

        ``precomputed_checksums`` carries checksums of ``u_new`` already
        produced by a fused sweep (``{axis: vector}``); any axis present
        is trusted instead of being recomputed here, so callers must only
        pass checksums that reflect ``u_new``'s current contents.

        With the double-buffered grids both arguments are live views into
        the persistent buffer pair: ``u_new`` into the front buffer the
        sweep just filled, ``padded_prev`` into the buffer the *next*
        sweep will overwrite.  They therefore must be read (and ``u_new``
        corrected) before the next step — which is exactly when the
        protectors run — and must never alias each other; the guard below
        rejects a caller that hands the same buffer for both.
        """
        from repro.stencil.shift import interior_view

        if np.may_share_memory(u_new, padded_prev):
            raise ValueError(
                "u_new aliases padded_prev: the new step must live in a "
                "different buffer than the padded previous step (did the "
                "double-buffer swap go missing?)"
            )
        verify, other = self.verify_axis, self.other_axis
        if self._prev_cs[verify] is None:
            self._store_prev_cs(
                verify,
                self._checksum(interior_view(padded_prev, self.radius), verify),
            )
            if self.eager_row_checksum:
                self._store_prev_cs(
                    other,
                    self._checksum(interior_view(padded_prev, self.radius), other),
                )
        prev_u = interior_view(padded_prev, self.radius)
        grid_u = u_new
        grid_ndim = u_new.ndim

        if precomputed_checksums is not None and verify in precomputed_checksums:
            cs_comp = precomputed_checksums[verify]
        else:
            cs_comp = self._checksum(grid_u, verify)
        cs_interp = interpolate_checksum_padded(
            self._checked_prev_cs(verify, prev_u),
            padded_prev,
            self.spec,
            self.radius,
            self.shape,
            verify,
            constant_sum=self._constant_sums[verify],
        )
        detection = detect_errors(cs_comp, cs_interp, self.epsilon)

        report = StepReport(
            iteration=iteration,
            detection_performed=True,
            errors_detected=detection.n_errors,
            max_relative_error=detection.max_relative_error,
        )

        other_comp = None
        if self.eager_row_checksum:
            if precomputed_checksums is not None and other in precomputed_checksums:
                other_comp = precomputed_checksums[other]
            else:
                other_comp = self._checksum(grid_u, other)

        if detection.detected:
            self.total_detections += detection.n_errors
            # Lazily build the second checksum pair: previous-step checksum
            # from the still-alive previous domain, current from the new one.
            other_prev = (
                self._checked_prev_cs(other, prev_u)
                if self._prev_cs[other] is not None
                else None
            )
            if other_prev is None:
                other_prev = self._checksum(prev_u, other)
            if other_comp is None:
                other_comp = self._checksum(grid_u, other)
            other_interp = interpolate_checksum_padded(
                other_prev,
                padded_prev,
                self.spec,
                self.radius,
                self.shape,
                other,
                constant_sum=self._constant_sums[other],
            )
            other_detection = detect_errors(other_comp, other_interp, self.epsilon)

            if verify == _COLUMN_AXIS:
                det_a, det_b = other_detection, detection
                a_comp, a_interp = other_comp, other_interp
                b_comp, b_interp = cs_comp, cs_interp
            else:
                det_a, det_b = detection, other_detection
                a_comp, a_interp = cs_comp, cs_interp
                b_comp, b_interp = other_comp, other_interp

            locations, unresolved = match_detections(
                det_a, det_b, a_comp, a_interp, b_comp, b_interp, grid_ndim
            )
            records = correct_errors(
                grid_u,
                locations,
                a_comp,
                a_interp,
                b_comp,
                b_interp,
                strategy=self.correction_strategy,
            )
            report.errors_corrected = len(records)
            report.errors_uncorrected = unresolved
            report.corrections = records
            self.total_corrections += len(records)
            self.total_uncorrected += unresolved
            # correct_errors patched a_comp/b_comp in place, so cs_comp and
            # other_comp are already consistent with the repaired domain.
            if self.refresh_checksums and records:
                self._refresh_entries(grid_u, records, a_comp, b_comp)

        self._store_prev_cs(verify, cs_comp)
        self._store_prev_cs(other, other_comp if self.eager_row_checksum else None)
        return report

    def _refresh_entries(self, u: np.ndarray, records, a_comp, b_comp) -> None:
        """Recompute the checksum entries touched by corrections from ``u``."""
        cs_dtype = self.checksum_dtype
        for rec in records:
            if u.ndim == 2:
                x, y = rec.index
                a_comp[x] = u[x, :].sum(dtype=cs_dtype)
                b_comp[y] = u[:, y].sum(dtype=cs_dtype)
            else:
                x, y, z = rec.index
                a_comp[x, z] = u[x, :, z].sum(dtype=cs_dtype)
                b_comp[y, z] = u[:, y, z].sum(dtype=cs_dtype)
