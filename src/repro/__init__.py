"""repro — Algorithm-Based Fault Tolerance for Parallel Stencil Computations.

This package is a from-scratch Python reproduction of:

    Aurélien Cavelan and Florina M. Ciorba,
    "Algorithm-Based Fault Tolerance for Parallel Stencil Computations",
    IEEE International Conference on Cluster Computing (CLUSTER), 2019.
    arXiv:1909.00709.

The library is organised as a set of small, composable subsystems:

``repro.backends``
    Pluggable compute backends behind every sweep and checksum: the
    ``numpy`` reference and the optimised ``fused`` backend (the paper's
    fused sweep+checksum kernel), selected via ``backend=`` keywords,
    the ``REPRO_BACKEND`` environment variable or the ``--backend`` CLI
    flag.

``repro.stencil``
    Arbitrary 2D/3D stencil specifications, boundary conditions and
    vectorised sweep operators (the computational substrate the paper's
    method protects).

``repro.core``
    The paper's primary contribution: checksum computation (Eqs. 2-3),
    checksum interpolation (Theorem 1, Eqs. 4-5/8-9), silent-data-corruption
    detection (Theorem 2) and correction (Eq. 10), packaged as online and
    offline ABFT protectors, including per-layer application to 3D domains.

``repro.faults``
    IEEE-754 bit-flip fault injection and seeded fault campaigns used by
    the paper's evaluation (Section 5).

``repro.checkpoint``
    The one verified-state ``Snapshot`` type (offline ABFT checkpoints,
    rank buddy checkpoints, grid resets) and rollback-recovery used by
    the offline ABFT variant (Section 4).

``repro.parallel``
    Tile and layer decomposition, shared-memory executors and a simulated
    message-passing layer so the scheme's "intrinsically parallel, no extra
    synchronisation" property can be exercised.

``repro.apps``
    Stencil applications, most importantly a NumPy port of the Rodinia
    HotSpot3D mini-app used in the paper's experiments.

``repro.baselines``
    Unprotected execution, triple modular redundancy and a spatial
    interpolation SDC detector used as comparison points.

``repro.metrics`` / ``repro.experiments``
    The l2-norm accuracy metric (Eq. 11), timing harnesses, and one module
    per paper table/figure that regenerates the published results.

Quickstart
----------
>>> import numpy as np
>>> from repro import OnlineABFT, StencilSpec, BoundaryCondition
>>> from repro.stencil import Grid2D
>>> spec = StencilSpec.five_point(0.2, 0.2, 0.2, 0.2, 0.2)
>>> grid = Grid2D(np.random.rand(64, 64).astype(np.float32),
...               spec, BoundaryCondition.clamp())
>>> protector = OnlineABFT.for_grid(grid)
>>> report = protector.step(grid)
>>> report.errors_detected
0
"""

from repro.version import __version__
# NOTE: the stencil imports must come first — repro.stencil.sweep is what
# (fully) initialises repro.backends; importing repro.backends directly
# here would re-enter it half-initialised via backends.base -> stencil.
from repro.stencil.spec import StencilPoint, StencilSpec
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid2D, Grid3D
from repro.backends import (
    Backend,
    available_backends,
    get_backend,
    set_default_backend,
)
from repro.core.online import OnlineABFT
from repro.core.offline import OfflineABFT
from repro.core.protector import NoProtection, StepReport
from repro.core.checksums import row_checksum, column_checksum
from repro.core.detection import DetectionResult
from repro.faults.bitflip import flip_bit
from repro.faults.injector import FaultInjector, FaultPlan
from repro.metrics.accuracy import l2_error

__all__ = [
    "__version__",
    "Backend",
    "available_backends",
    "get_backend",
    "set_default_backend",
    "StencilPoint",
    "StencilSpec",
    "BoundaryCondition",
    "BoundarySpec",
    "Grid2D",
    "Grid3D",
    "OnlineABFT",
    "OfflineABFT",
    "NoProtection",
    "StepReport",
    "row_checksum",
    "column_checksum",
    "DetectionResult",
    "flip_bit",
    "FaultInjector",
    "FaultPlan",
    "l2_error",
]
