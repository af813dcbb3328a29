"""ABFT core: the paper's primary contribution.

This subpackage implements the algorithm-based fault-tolerance scheme of
Cavelan & Ciorba (CLUSTER 2019) for arbitrary stencil computations:

``checksums``
    Row/column checksum vectors of the stencil domain (Eqs. 2-3).
``interpolation``
    Checksum interpolation (Theorem 1): predicting the step-``t+1``
    checksums from the step-``t`` checksums, including the exact α/β
    boundary-correction terms for every boundary condition, the
    simplified variant (Eqs. 8-9), and the strip-based variant used by
    the offline protector.
``detection``
    Relative-error comparison of computed vs. interpolated checksums
    (Theorem 2, Section 3.4).
``correction``
    Error localisation from the row/column mismatch pattern and value
    recovery (Eq. 10, Section 3.5).
``online``
    :class:`OnlineABFT` — detect and correct after every sweep.
``offline``
    :class:`OfflineABFT` — periodic detection with checkpoint/rollback
    recovery (Section 4).
``protector``
    The common protector interface, :class:`NoProtection` baseline and
    :class:`StepReport` bookkeeping.
``thresholds``
    Detection-threshold (ε) selection helpers.
"""

from repro.core.checksums import (
    checksum,
    row_checksum,
    column_checksum,
    both_checksums,
    constant_checksum,
)
from repro.core.interpolation import (
    interpolate_checksum,
    interpolate_checksum_padded,
    interpolate_checksum_reduced,
    extract_delta_strips,
    reduced_boundary,
)
from repro.core.detection import DetectionResult, detect_errors, relative_discrepancy
from repro.core.correction import CorrectionRecord, correct_errors, match_detections
from repro.core.protector import Protector, NoProtection, StepReport
from repro.core.online import OnlineABFT
from repro.core.offline import OfflineABFT
from repro.core.thresholds import PAPER_EPSILON, recommend_epsilon

__all__ = [
    "checksum",
    "row_checksum",
    "column_checksum",
    "both_checksums",
    "constant_checksum",
    "interpolate_checksum",
    "interpolate_checksum_padded",
    "interpolate_checksum_reduced",
    "extract_delta_strips",
    "reduced_boundary",
    "DetectionResult",
    "detect_errors",
    "relative_discrepancy",
    "CorrectionRecord",
    "correct_errors",
    "match_detections",
    "Protector",
    "NoProtection",
    "StepReport",
    "OnlineABFT",
    "OfflineABFT",
    "PAPER_EPSILON",
    "recommend_epsilon",
]
