"""Detection-threshold (ε) selection.

The detection threshold trades false positives against detection
sensitivity: it must sit above the floating-point discrepancy between
the two checksum computation orders (which grows with the reduction
length and with the stencil's weight magnitudes) yet below the relative
perturbation caused by the silent errors one wants to catch.

The paper uses ε = 1e-5 for both tile sizes (64x64x8 and 512x512x8) and
reports no false positives while detecting every error above the fifth
decimal (Section 5.1). :func:`recommend_epsilon` reproduces that choice
for float32 domains of comparable size and scales it for other dtypes,
domain sizes and detection periods.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.stencil.spec import StencilSpec

__all__ = ["PAPER_EPSILON", "recommend_epsilon"]

#: The detection threshold used throughout the paper's evaluation.
PAPER_EPSILON = 1e-5

#: Multiplicative safety margin over the round-off estimate.
_SAFETY = 64.0

#: Hard lower bound on a recommended threshold.
_FLOOR = 1e-14


def recommend_epsilon(
    shape: Sequence[int],
    reduce_axis: int,
    dtype=np.float32,
    spec: StencilSpec | None = None,
    period: int = 1,
) -> float:
    """Suggest a detection threshold for a given configuration.

    The estimate models the relative round-off discrepancy between the
    directly computed checksum (a length-``n`` pairwise summation) and
    the interpolated checksum (a ``k``-term weighted accumulation of the
    previous checksum), compounded over ``period`` interpolation steps
    for the offline variant:

    ``eps ≈ 64 * machine_eps * sqrt(n) * max(1, sum|w|) * period``

    The result is clamped from below by 1e-14 and never returned
    smaller than the paper's 1e-5 for float32 domains of the paper's
    scale, so default configurations reproduce the published setting.

    Parameters
    ----------
    shape:
        Domain shape.
    reduce_axis:
        Axis summed over by the verified checksum.
    dtype:
        Domain dtype.
    spec:
        Optional stencil (its absolute weight sum bounds the per-step
        amplification).
    period:
        Detection period Δ (1 for the online protector).
    """
    shape = tuple(int(n) for n in shape)
    if reduce_axis < 0 or reduce_axis >= len(shape):
        raise ValueError(f"reduce_axis {reduce_axis} out of range for shape {shape}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    n = shape[reduce_axis]
    machine_eps = float(np.finfo(dtype).eps)
    amplification = 1.0
    if spec is not None:
        amplification = max(1.0, spec.abs_weight_sum())
    estimate = _SAFETY * machine_eps * math.sqrt(max(n, 1)) * amplification * period
    estimate = max(estimate, _FLOOR)
    if np.dtype(dtype) == np.dtype(np.float32):
        # Keep the paper's published operating point for float32 domains.
        estimate = max(estimate, PAPER_EPSILON)
    return float(estimate)
