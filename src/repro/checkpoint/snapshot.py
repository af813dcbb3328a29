"""The one verified-state copy: :class:`Snapshot`.

Every rollback target in the package is a :class:`Snapshot` — the
campaign worker's reset point (:meth:`GridBase.snapshot`), the offline
protector's checkpoint ("a lightweight memory copy of the current state
of the grid and of the checksums every Δ iterations") and each rank's
buddy checkpoint.  The module owns the three decisions those users
share:

* the **duplicate rule** guarding a stored checksum (:meth:`Snapshot.verify`):
  two copies that disagree mean the *metadata* was struck, so the
  checksum is recomputed from the still-healthy payload and both copies
  are repaired; two copies that agree but contradict the payload mean
  the *payload* was struck, and restoring it would resurrect corruption
  (:class:`CheckpointCorrupt`);
* the **wire encoding** of a snapshot's metadata for the buddy ring
  (:meth:`Snapshot.meta` / :meth:`Snapshot.from_meta`);
* the checkpointable protector state (:class:`ProtectorState`).

Callers pass their own ``recompute`` function, so the rule never adds a
reduction pass a caller did not already pay for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CheckpointCorrupt", "ProtectorState", "Snapshot"]

#: Recomputes a snapshot's checksum from its interior.
Recompute = Callable[[np.ndarray], np.ndarray]

_AXES = (0, 1)


class CheckpointCorrupt(RuntimeError):
    """A snapshot failed its integrity check and must not be restored.

    Raised when a snapshot's payload no longer matches its (self-checked)
    checksum vector — restoring it would resurrect corrupted state, so
    recovery refuses.
    """


@dataclass
class ProtectorState:
    """Checkpointable :class:`~repro.core.online.OnlineABFT` state.

    ``prev_cs`` maps each checksum axis (0, 1) to the stored
    previous-step checksum vector, or ``None`` when that axis is not
    held; ``counters`` are the four running totals (detections,
    corrections, uncorrected, metadata repairs).
    """

    prev_cs: Dict[int, Optional[np.ndarray]]
    counters: Tuple[int, int, int, int]


@dataclass
class Snapshot:
    """A copy of verified state: interior, iteration and checksum pair.

    ``interior`` is owned by the snapshot (callers hand in a copy).
    ``checksum`` is the working copy and ``checksum_dup`` its
    independent duplicate (both ``None`` for a plain grid snapshot);
    :meth:`seal` sets the pair.  ``protector`` carries the protector
    state of a rank checkpoint (``None`` for unprotected state).
    """

    iteration: int
    interior: np.ndarray
    checksum: Optional[np.ndarray] = None
    checksum_dup: Optional[np.ndarray] = None
    protector: Optional[ProtectorState] = None

    def seal(self, checksum: np.ndarray) -> "Snapshot":
        """Attach ``checksum`` and an independent duplicate; returns ``self``."""
        self.checksum = checksum
        self.checksum_dup = checksum.copy()
        return self

    def verify(
        self, recompute: Recompute, payload: bool = True, name: str = "snapshot"
    ) -> bool:
        """Apply the duplicate rule; returns ``True`` iff it repaired metadata.

        Disagreeing copies: recompute the checksum from :attr:`interior`
        and repair both.  Agreeing copies are trusted as they stand
        unless ``payload`` is set, in which case they are checked
        against a recomputation and a mismatch raises
        :class:`CheckpointCorrupt` (``name`` labels the snapshot in the
        message).
        """
        if not np.array_equal(self.checksum, self.checksum_dup):
            self.seal(recompute(self.interior))
            return True
        if payload and not np.array_equal(recompute(self.interior), self.checksum):
            raise CheckpointCorrupt(
                f"{name} at iteration {self.iteration} fails its integrity "
                f"check: the domain payload disagrees with the "
                f"(self-consistent) checksum vector; refusing to restore "
                f"corrupted state"
            )
        return False

    # -- buddy-ring wire encoding ---------------------------------------------
    def meta(self) -> np.ndarray:
        """Flatten the metadata of a sealed snapshot into one float64 vector.

        Layout: ``[iteration, has_protector]``, the checksum, its
        duplicate, then (with a protector) the four counters followed by
        per-axis ``[present, *prev_cs.flat]`` sections.  The receiver
        knows the interior's shape and the protector's checksum dtype,
        so the vector decodes without any side channel.
        """
        parts: List[np.ndarray] = [
            np.array(
                [float(self.iteration), 0.0 if self.protector is None else 1.0],
                dtype=np.float64,
            ),
            np.asarray(self.checksum, dtype=np.float64).ravel(),
            np.asarray(self.checksum_dup, dtype=np.float64).ravel(),
        ]
        state = self.protector
        if state is not None:
            parts.append(np.array(state.counters, dtype=np.float64))
            for axis in _AXES:
                cs = state.prev_cs.get(axis)
                if cs is None:
                    parts.append(np.zeros(1, dtype=np.float64))
                else:
                    parts.append(np.ones(1, dtype=np.float64))
                    parts.append(np.asarray(cs, dtype=np.float64).ravel())
        return np.concatenate(parts)

    @classmethod
    def from_meta(
        cls, meta: np.ndarray, interior: np.ndarray, prev_cs_dtype=np.float64
    ) -> "Snapshot":
        """Rebuild a snapshot from its :meth:`meta` vector and payload.

        ``prev_cs_dtype`` is the accumulation dtype of the owner's
        protector checksums; the float64 wire copy of each ``prev_cs``
        is cast back to it exactly.
        """
        meta = np.asarray(meta, dtype=np.float64).ravel()
        shape = interior.shape
        cs_shape = shape[1:]
        cs_len = int(np.prod(cs_shape, dtype=np.int64))
        pos = 2
        checksum = meta[pos : pos + cs_len].reshape(cs_shape).copy()
        pos += cs_len
        checksum_dup = meta[pos : pos + cs_len].reshape(cs_shape).copy()
        pos += cs_len
        state: Optional[ProtectorState] = None
        if meta[1]:
            counters = tuple(int(c) for c in meta[pos : pos + 4])
            pos += 4
            prev_cs: Dict[int, Optional[np.ndarray]] = {}
            for axis in _AXES:
                present = bool(meta[pos])
                pos += 1
                if not present:
                    prev_cs[axis] = None
                    continue
                axis_shape = tuple(
                    n for ax, n in enumerate(shape) if ax != axis
                ) or (1,)
                n = int(np.prod(axis_shape, dtype=np.int64))
                prev_cs[axis] = (
                    meta[pos : pos + n].reshape(axis_shape).astype(prev_cs_dtype)
                )
                pos += n
            state = ProtectorState(prev_cs=prev_cs, counters=counters)
        return cls(
            iteration=int(meta[0]),
            interior=interior,
            checksum=checksum,
            checksum_dup=checksum_dup,
            protector=state,
        )
