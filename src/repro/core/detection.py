"""Silent-data-corruption detection (Theorem 2, Section 3.4 of the paper).

Because of floating-point round-off the computed and interpolated
checksums are never bit-identical, so the comparison uses the *relative*
error of each checksum entry,

.. math::

    \\left| \\frac{a'^{(t+1)}_x}{a^{(t+1)}_x} - 1 \\right| > \\varepsilon,

and an error flag is raised whenever it exceeds a detection threshold ε
(1e-5 in the paper's experiments), or is NaN: a flip that turns a
domain value into NaN or inf makes its checksum entries' errors NaN,
which no ``>`` comparison flags, so an entry is flagged unless its
error is at most ε. The indices of the flagged entries give the row
(respectively column, respectively layer) of the corrupted point and
are later consumed by the correction step.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.backends import native

__all__ = ["DetectionResult", "relative_discrepancy", "detect_errors"]


@dataclass
class DetectionResult:
    """Outcome of comparing a computed checksum against an interpolated one.

    Attributes
    ----------
    mismatch_indices:
        Integer array of shape ``(m, cs_ndim)``; each row is the index of
        a checksum entry whose relative error exceeded the threshold or
        is NaN.
        For a 2D domain the checksum is 1D so each row has one component
        (the row/column index); for a 3D domain each row is ``(x, z)`` or
        ``(y, z)``.
    relative_errors:
        Relative error of each flagged entry, shape ``(m,)``.
    max_relative_error:
        Largest relative error over the *whole* checksum (flagged or not);
        useful for threshold calibration and false-positive analysis.
    threshold:
        The ε used for this comparison.
    n_checked:
        Total number of checksum entries compared.
    """

    mismatch_indices: np.ndarray
    relative_errors: np.ndarray
    max_relative_error: float
    threshold: float
    n_checked: int

    @property
    def detected(self) -> bool:
        """``True`` iff at least one checksum entry exceeded the threshold."""
        return len(self.mismatch_indices) > 0

    @property
    def n_errors(self) -> int:
        return int(len(self.mismatch_indices))

    def indices_as_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Flagged indices as plain Python tuples."""
        return tuple(tuple(int(v) for v in row) for row in self.mismatch_indices)

    def __bool__(self) -> bool:
        return self.detected

    def __len__(self) -> int:
        return self.n_errors


def relative_discrepancy(
    computed: np.ndarray, interpolated: np.ndarray
) -> np.ndarray:
    """Element-wise relative error ``|interpolated / computed - 1|``.

    Entries where the computed checksum is exactly zero fall back to the
    absolute difference ``|interpolated - computed|`` so that a corrupted
    zero still registers a non-zero discrepancy instead of a division by
    zero.
    """
    computed = np.asarray(computed)
    interpolated = np.asarray(interpolated)
    if computed.shape != interpolated.shape:
        raise ValueError(
            f"checksum shapes differ: {computed.shape} vs {interpolated.shape}"
        )
    diff = np.abs(interpolated.astype(np.float64) - computed.astype(np.float64))
    denom = np.abs(computed.astype(np.float64))
    # An inf entry's error is NaN (inf / inf), which detection flags.
    with np.errstate(invalid="ignore"):
        return np.where(denom > 0.0, diff / np.where(denom > 0.0, denom, 1.0), diff)


def _kernel(computed, interpolated):
    """The compiled compare for this pair, or ``None``."""
    if not (
        isinstance(computed, np.ndarray) and isinstance(interpolated, np.ndarray)
        and computed.ndim > 0 and computed.shape == interpolated.shape
        and computed.dtype == interpolated.dtype
        and computed.flags.c_contiguous and interpolated.flags.c_contiguous
        and computed.flags.aligned and interpolated.flags.aligned
    ):
        return None
    lib = native.library()
    return None if lib is None else lib.compare.get(computed.dtype.str)


def detect_errors(
    computed: np.ndarray,
    interpolated: np.ndarray,
    threshold: float,
) -> DetectionResult:
    """Compare a computed checksum against its interpolated prediction.

    Parameters
    ----------
    computed:
        Checksum computed directly from the step-``t+1`` domain
        (Eqs. 2-3).
    interpolated:
        Checksum predicted from the step-``t`` checksum via Theorem 1.
    threshold:
        Detection threshold ε (relative).

    Returns
    -------
    DetectionResult

    Notes
    -----
    An entry is flagged unless its relative error is at most
    ``threshold``, so a NaN error (an entry of a value turned NaN or inf)
    is flagged.  Two C-contiguous float64 checksums of one shape are
    compared in one compiled pass (:mod:`repro.backends.native`) that
    counts the entries over ``threshold`` and takes the largest relative
    error, NaN if any is NaN, as :func:`relative_discrepancy` and ``max``
    do.  The flagged indices and their errors are built with NumPy only
    when that count is non-zero or that maximum is NaN.  Without the
    library, and for any other pair, the NumPy code runs.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    compare = _kernel(computed, interpolated)
    if compare is not None:
        top = ctypes.c_double()
        count = compare(
            computed.ctypes.data, interpolated.ctypes.data, computed.size,
            threshold, ctypes.byref(top),
        )
        if count == 0 and not math.isnan(top.value):
            return DetectionResult(
                mismatch_indices=np.empty((0, computed.ndim), dtype=np.intp),
                relative_errors=np.empty(0),
                max_relative_error=top.value,
                threshold=float(threshold),
                n_checked=int(computed.size),
            )
    rel = relative_discrepancy(computed, interpolated)
    flagged = ~(rel <= threshold)
    idx = np.argwhere(flagged)
    errors = rel[flagged]
    max_rel = float(rel.max()) if rel.size else 0.0
    return DetectionResult(
        mismatch_indices=idx,
        relative_errors=np.asarray(errors, dtype=np.float64),
        max_relative_error=max_rel,
        threshold=float(threshold),
        n_checked=int(rel.size),
    )
