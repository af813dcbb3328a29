"""Verified-state snapshots and rollback recovery.

The offline ABFT variant (Section 4 of the paper) cannot correct errors
by itself: it couples the periodic checksum-based detector with the
standard checkpoint/rollback-recovery technique. This subpackage
provides the one verified-state copy every rollback target uses
(:class:`Snapshot` — "a lightweight memory copy of the current state of
the grid and of the checksums", Section 5.4) and the
recompute-from-checkpoint recovery routine.
"""

from repro.checkpoint.snapshot import CheckpointCorrupt, ProtectorState, Snapshot
from repro.checkpoint.recovery import rollback_and_recompute

__all__ = ["CheckpointCorrupt", "ProtectorState", "Snapshot", "rollback_and_recompute"]
