"""Spatial-interpolation SDC detector (data-analytics baseline).

This baseline follows the multivariate-interpolation idea of
Bautista-Gomez & Cappello (CLUSTER 2015), which the paper compares
against in Section 2: each domain point is predicted from the average of
its spatial neighbours, and a point whose value deviates from the
prediction by more than a relative threshold is flagged as corrupted
(and optionally replaced by the prediction).

The detector is cheap and application-agnostic, but it is *approximate*:
smooth fields make small corruptions indistinguishable from legitimate
local variation, so only large deviations (the paper quotes magnitudes
above 1e-2) are reliably caught, and sharp legitimate features (e.g. a
heat source switching on, a shock) can trigger false positives. The
detection-sensitivity benchmark contrasts this behaviour with the ABFT
detector's 1e-5 sensitivity and absence of false positives.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.protector import InjectHook, Protector, StepReport
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import GridBase
from repro.stencil.shift import pad_array, shifted_view

__all__ = ["SpatialInterpolationDetector"]

#: Absolute scale floor of the relative comparison, so that near-zero
#: regions do not produce spurious flags.
_MIN_SCALE = 1e-6


class SpatialInterpolationDetector(Protector):
    """Flag points that deviate strongly from their neighbourhood average.

    Parameters
    ----------
    threshold:
        Relative deviation above which a point is flagged. The reference
        work detects corruptions of magnitude above ~1e-2; that is the
        default here.
    correct:
        Replace flagged points by their neighbourhood prediction
        (``True``) or only detect (``False``).
    """

    name = "spatial-detector"

    def __init__(
        self,
        threshold: float = 1e-2,
        correct: bool = True,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = float(threshold)
        self.correct = bool(correct)
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0

    def reset(self) -> None:
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0

    def _neighbour_stack(self, u: np.ndarray) -> np.ndarray:
        """Face-neighbour values of every point (clamped edges), stacked."""
        padded = pad_array(u, 1, BoundaryCondition.clamp())
        neighbours = []
        for axis in range(u.ndim):
            for direction in (-1, 1):
                offset = [0] * u.ndim
                offset[axis] = direction
                neighbours.append(shifted_view(padded, offset, 1, u.shape))
        return np.stack(neighbours, axis=0).astype(np.float64)

    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        grid.step()
        if inject is not None:
            inject(grid, grid.iteration)

        u = grid.u
        stack = self._neighbour_stack(u)
        # Mean prediction for *detection*: on smooth data the first-order
        # (gradient) contribution of opposite neighbours cancels, so only
        # curvature-sized deviations remain and legitimate smooth fields do
        # not trigger the detector.
        mean_prediction = stack.mean(axis=0).astype(u.dtype)
        scale = np.maximum(np.abs(mean_prediction), _MIN_SCALE)
        deviation = np.abs(u - mean_prediction) / scale
        flagged = deviation > self.threshold

        n_flagged = int(np.count_nonzero(flagged))
        report = StepReport(
            iteration=grid.iteration,
            detection_performed=True,
            errors_detected=n_flagged,
            max_relative_error=float(deviation.max()) if deviation.size else 0.0,
        )
        self.total_detections += n_flagged
        if n_flagged and self.correct:
            # Median replacement for *correction*: the neighbours of a
            # corrupted point may themselves be flagged (their mean
            # prediction is poisoned by the outlier), and the median keeps
            # their replacement value sane.
            median_prediction = np.median(stack, axis=0).astype(u.dtype)
            u[flagged] = median_prediction[flagged]
            report.errors_corrected = n_flagged
            self.total_corrections += n_flagged
        elif n_flagged:
            report.errors_uncorrected = n_flagged
            self.total_uncorrected += n_flagged
        return report
