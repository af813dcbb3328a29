"""Simulated message-passing (distributed-memory) execution.

The paper argues its ABFT scheme applies unchanged to distributed-memory
systems because every rank protects its own block with its own checksum
vectors — the property it calls "intrinsically parallel" (Section 5.2):
no global reduction or cross-rank checksum is ever needed, so the
protection overhead stays flat under weak scaling.  Real MPI is not
available in this environment, so this module provides a small
deterministic stand-in:

* :class:`SimChannel` — an in-memory mailbox with ``send``/``recv``
  keyed by (source, destination, tag); payloads are copied on send, so
  ranks cannot share memory by accident.  Message and byte counts are
  tracked globally and per tag for the weak-scaling benchmark.  Every
  payload is covered by a CRC32, computed only for a payload a fault
  struck (the only kind that can fail it): in-flight corruption and
  drops (scheduled through :meth:`SimChannel.schedule_fault`, e.g. by
  the ``region-targeted`` fault models) are detected at receive time and
  recovered by retransmission from the sender-side retention copy,
  with per-tag drop/corrupt/retransmit accounting — the standard
  link-level protection real interconnects provide underneath MPI.
* :class:`SimRank` — one rank's state: a persistent padded
  :class:`~repro.stencil.doublebuffer.DoubleBufferedGrid` pair holding
  its contiguous block of the domain (split along the chosen
  decomposition axis), its
  constant-term block and its own
  :class:`~repro.core.online.OnlineABFT` protector.
* :class:`DistributedStencilRunner` — drives all ranks in lock-step
  through the zero-copy buffer-pair lifecycle: every iteration each
  rank posts its boundary strips, receives its neighbours' strips
  **directly into its front buffer's ghost slabs**
  (:func:`~repro.parallel.halo.ingest_halo` — no ``stack_with_halos``
  concatenate, no per-step ``pad_array``), refreshes the remaining
  axes' ghosts in place and sweeps into its back buffer through the
  backend's ``step_into`` primitive, swaps the pair, runs the inject
  hook if one is set, then reduces and verifies its own checksum.
  Zero full-block allocations per rank per iteration.

The simulation is sequential under the hood (ranks are stepped in a
loop), but all inter-rank data flows through explicit messages, so the
communication structure matches a 1D-decomposed MPI stencil code.
"""

from __future__ import annotations

import inspect
import zlib
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.backends import get_backend
from repro.backends.registry import BackendLike
from repro.checkpoint.snapshot import CheckpointCorrupt, Snapshot
from repro.core.online import OnlineABFT
from repro.core.protector import StepReport
from repro.parallel.decomposition import partition_extent
from repro.parallel.halo import (
    boundary_strip,
    ingest_halo,
    synthesize_ghost_into,
)
from repro.stencil.boundary import BoundarySpec
from repro.stencil.doublebuffer import DoubleBufferedGrid
from repro.stencil.grid import GridBase
from repro.stencil.spec import StencilSpec

__all__ = [
    "ChannelError",
    "RankFailure",
    "CheckpointCorrupt",
    "RecoveryError",
    "RecoveryStats",
    "SimChannel",
    "SimRank",
    "DistributedStencilRunner",
]

#: Default axis along which the domain is distributed across ranks.
#: :class:`DistributedStencilRunner` accepts any axis via ``axis=`` —
#: every decomposition axis runs the same backend step.
DISTRIBUTED_AXIS = 0

#: Default checkpoint period: the ABFT detection period Δ (the offline
#: protector's default ``period``).  A checkpoint is exactly an offline
#: detection point — state committed only after verification — so the
#: buddy-checkpoint cadence defaults to the same rule.
DETECTION_PERIOD = 16

#: The :class:`OnlineABFT` keywords a caller may pass through the runner
#: (the rest are set by the runner for every rank).
_ABFT_KWARGS = frozenset(inspect.signature(OnlineABFT).parameters) - {
    "spec", "boundary", "shape", "dtype", "constant", "backend",
}

#: Channel tags of the buddy-checkpoint shipments (domain payload and
#: packed metadata vector), counted in :meth:`SimChannel.traffic` per
#: tag alongside halo traffic.
CKPT_TAG = "ckpt"
CKPT_META_TAG = "ckpt_meta"


class ChannelError(RuntimeError):
    """A receive could not be satisfied (empty mailbox or unrecoverable loss).

    Subclasses :class:`RuntimeError` so existing callers that guarded the
    old generic error keep working.
    """


class RankFailure(ChannelError):
    """A peer stopped answering: the fail-stop verdict of the channel.

    Raised by :meth:`SimChannel.recv` when the source rank has been
    declared failed and its mailbox holds nothing, and by
    :meth:`SimChannel.check_liveness` when a heartbeat round finds a
    failed rank.  ``rank`` names the dead peer so the runner's recovery
    path knows whom to rebuild.
    """

    def __init__(self, rank: int, message: str) -> None:
        super().__init__(message)
        self.rank = int(rank)


class RecoveryError(RuntimeError):
    """Rank-failure recovery is impossible in the current configuration.

    Examples: no checkpointing enabled when a rank died, a failed rank
    whose buddy also died (the in-memory copy is gone), or checkpointing
    requested for a sole rank with no buddy at all.
    """


@dataclass
class _Message:
    """One in-flight message: the wire copy plus integrity metadata.

    ``payload`` is what travels (and what scheduled faults mutate);
    ``pristine`` is the sender-side retention copy used for
    retransmission.  When no fault struck, ``payload`` *is* ``pristine``
    (no extra copy) and carries no CRC: ``recv`` checks only a payload
    that is not its retention copy, so ``crc``, the CRC32 of the payload
    as it was sent, is taken only for a payload a fault struck.
    """

    payload: np.ndarray
    pristine: np.ndarray
    crc: Optional[int] = None
    dropped: bool = False


class SimChannel:
    """In-memory point-to-point message mailbox with link-level integrity.

    Messages are addressed by ``(source, destination, tag)`` and consumed
    in FIFO order per address (an O(1) ``deque.popleft`` per receive).
    Payload arrays are copied on send so the sender cannot mutate data
    already "on the wire".  Traffic is accounted globally
    (``messages_sent``/``bytes_sent``) and per tag
    (``messages_by_tag``/``bytes_by_tag``) — the weak-scaling benchmark
    reports the per-tag breakdown.

    A corrupted payload fails its CRC32 at receive time and is
    recovered by "retransmission" from the sender-side retention copy;
    a dropped message is likewise detected and retransmitted. Both are
    counted per tag (``corrupted_by_tag``/``dropped_by_tag``/
    ``retransmitted_by_tag``).

    Notes
    -----
    In-flight faults are scheduled with :meth:`schedule_fault` against
    the 1-based *global send ordinal* (the n-th *fault-eligible*
    ``send`` on this channel), which is how the ``payload``-targeted
    fault models address a specific halo message deterministically.
    Checkpoint shipments are sent with ``fault_eligible=False`` so they
    never consume an ordinal — arming a payload fault stays stable
    whether or not buddy checkpointing is on.

    A receive from an empty mailbox raises :class:`ChannelError` at
    once, naming the link and the receiver's pending-tag inventory: the
    ranks run one after another, so nothing can post between two polls
    of the same mailbox.
    """

    def __init__(self) -> None:
        self._mailboxes: Dict[Tuple[int, int, str], Deque[_Message]] = {}
        self._send_ordinal = 0
        self._scheduled: Dict[int, Tuple[str, Tuple[int, ...], int]] = {}
        self._failed: set = set()
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self.messages_retransmitted = 0
        self.messages_by_tag: Dict[str, int] = {}
        self.bytes_by_tag: Dict[str, int] = {}
        self.dropped_by_tag: Dict[str, int] = {}
        self.corrupted_by_tag: Dict[str, int] = {}
        self.retransmitted_by_tag: Dict[str, int] = {}

    # -- liveness --------------------------------------------------------------
    def mark_failed(self, rank: int) -> None:
        """Declare a rank fail-stopped: it no longer posts or answers."""
        self._failed.add(int(rank))

    def revive(self, rank: int) -> None:
        """Clear a rank's failed mark (after recovery rebuilt it)."""
        self._failed.discard(int(rank))

    @property
    def failed_ranks(self) -> frozenset:
        """The ranks currently declared failed."""
        return frozenset(self._failed)

    @property
    def has_failures(self) -> bool:
        return bool(self._failed)

    def check_liveness(self, ranks: Iterable[int]) -> None:
        """Heartbeat round: raise :class:`RankFailure` for a dead rank.

        The lock-step runner calls this before each exchange so a rank
        death is detected even when the topology exchanges no halo
        messages (``halo_width == 0``), where no receive from the dead
        rank would ever notice it.
        """
        for rank in ranks:
            if int(rank) in self._failed:
                raise RankFailure(
                    rank,
                    f"rank {rank} missed its heartbeat: declared failed "
                    f"(fail-stop), recovery required",
                )

    # -- fault surface ---------------------------------------------------------
    def schedule_fault(
        self,
        ordinal: int,
        action: str = "corrupt",
        index: Tuple[int, ...] = (0,),
        bit: int = 0,
    ) -> None:
        """Arm an in-flight fault against the ``ordinal``-th future send.

        ``action`` is ``"corrupt"`` (flip ``bit`` of the payload element
        at flat offset ``index[0]``) or ``"drop"`` (the wire loses the
        message). The fault strikes the in-flight copy only — the
        sender-side retention copy stays pristine, which is what makes
        detect-and-retransmit recovery possible.
        """
        ordinal = int(ordinal)
        if ordinal < 1:
            raise ValueError("send ordinals are 1-based; got ordinal < 1")
        if ordinal <= self._send_ordinal:
            raise ValueError(
                f"send ordinal {ordinal} already passed "
                f"({self._send_ordinal} messages sent)"
            )
        if action not in ("corrupt", "drop"):
            raise ValueError(
                f"unknown in-flight fault action {action!r}; "
                "expected 'corrupt' or 'drop'"
            )
        self._scheduled[ordinal] = (action, tuple(int(i) for i in index), int(bit))

    def _count(self, counters: Dict[str, int], tag: str) -> None:
        counters[tag] = counters.get(tag, 0) + 1

    def send(
        self,
        source: int,
        dest: int,
        tag: str,
        payload: np.ndarray,
        fault_eligible: bool = True,
    ) -> None:
        tag = str(tag)
        key = (int(source), int(dest), tag)
        pristine = np.array(payload, copy=True)
        fault = None
        if fault_eligible:
            # Only fault-eligible sends (the halo stream) advance the
            # scheduled-fault ordinal space; checkpoint shipments travel
            # outside it so PR 8's ordinal arithmetic stays stable.
            self._send_ordinal += 1
            fault = self._scheduled.pop(self._send_ordinal, None)
        wire = pristine
        crc = None
        dropped = False
        if fault is not None:
            action, index, bit = fault
            if action == "drop":
                dropped = True
                self.messages_dropped += 1
                self._count(self.dropped_by_tag, tag)
            else:
                offset = index[0] if index else 0
                if not 0 <= offset < pristine.size:
                    raise ValueError(
                        f"in-flight corruption offset {offset} out of range "
                        f"for a payload of {pristine.size} elements "
                        f"(tag {tag!r}, rank {source} -> rank {dest})"
                    )
                crc = zlib.crc32(pristine.tobytes())
                wire = pristine.copy()
                from repro.faults.bitflip import flip_bit_in_array

                flip_bit_in_array(wire.reshape(-1), (offset,), bit)
                self.messages_corrupted += 1
                self._count(self.corrupted_by_tag, tag)
        self._mailboxes.setdefault(key, deque()).append(
            _Message(payload=wire, pristine=pristine, crc=crc, dropped=dropped)
        )
        nbytes = int(pristine.nbytes)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.messages_by_tag[tag] = self.messages_by_tag.get(tag, 0) + 1
        self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + nbytes

    def recv(self, source: int, dest: int, tag: str) -> np.ndarray:
        tag = str(tag)
        source, dest = int(source), int(dest)
        key = (source, dest, tag)
        queue = self._mailboxes.get(key)
        if not queue and source in self._failed:
            raise RankFailure(
                source,
                f"no message from rank {source} to rank {dest} with tag "
                f"{tag!r}: the source rank is declared failed (fail-stop), "
                f"recovery required",
            )
        if not queue:
            pending = self.pending_tags(dest)
            inventory = (
                ", ".join(f"{t!r}: {n}" for t, n in sorted(pending.items()))
                if pending
                else "nothing pending"
            )
            raise ChannelError(
                f"no message from rank {source} to rank {dest} with tag "
                f"{tag!r}: the mailbox is empty (was the halo posted this "
                f"iteration?); link rank {source} -> rank {dest}, pending "
                f"tags for rank "
                f"{dest}: {inventory}"
            )
        msg = queue.popleft()
        if msg.dropped:
            self.messages_retransmitted += 1
            self._count(self.retransmitted_by_tag, tag)
            return msg.pristine
        if msg.payload is not msg.pristine:
            if zlib.crc32(msg.payload.tobytes()) != msg.crc:
                self.messages_retransmitted += 1
                self._count(self.retransmitted_by_tag, tag)
                return msg.pristine
        return msg.payload

    def pending(self) -> int:
        """Number of messages posted but not yet received."""
        return sum(len(q) for q in self._mailboxes.values())

    def pending_tags(self, dest: Optional[int] = None) -> Dict[str, int]:
        """Pending message counts per tag (optionally for one receiver).

        This is the inventory the empty-mailbox :class:`ChannelError`
        reports, so a failed receive names what *is* waiting — usually
        enough to spot a mis-ordered post or a wrong tag at a glance.
        """
        counts: Dict[str, int] = {}
        for (src, d, tag), queue in self._mailboxes.items():
            if dest is not None and d != int(dest):
                continue
            if queue:
                counts[tag] = counts.get(tag, 0) + len(queue)
        return counts

    def purge(self) -> int:
        """Drop every pending message; returns how many were discarded.

        Recovery calls this after a rank failure so halo posts of the
        aborted iteration cannot leak into the replay.
        """
        purged = self.pending()
        self._mailboxes.clear()
        return purged

    def traffic(self) -> Dict[str, object]:
        """Snapshot of the traffic counters (for benchmark reports)."""
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "messages_dropped": self.messages_dropped,
            "messages_corrupted": self.messages_corrupted,
            "messages_retransmitted": self.messages_retransmitted,
            "messages_by_tag": dict(self.messages_by_tag),
            "bytes_by_tag": dict(self.bytes_by_tag),
            "dropped_by_tag": dict(self.dropped_by_tag),
            "corrupted_by_tag": dict(self.corrupted_by_tag),
            "retransmitted_by_tag": dict(self.retransmitted_by_tag),
        }


def _checkpoint_checksum(interior: np.ndarray) -> np.ndarray:
    """Integrity vector of a rank checkpoint payload.

    Deliberately a plain ``np.sum`` in float64 along axis 0 — computed
    identically at snapshot and verify time, independent of any backend
    (a backend's ``checksum`` need not add in this order, so it would
    not be bitwise-comparable across backends).
    """
    return np.sum(interior, axis=0, dtype=np.float64)


@dataclass
class RecoveryStats:
    """Per-run fail-stop accounting surfaced by the distributed runner."""

    checkpoints_taken: int = 0
    checkpoint_messages: int = 0
    checkpoint_bytes: int = 0
    checkpoint_metadata_repairs: int = 0
    rank_failures: int = 0
    ranks_rebuilt: int = 0
    rollbacks: int = 0
    replayed_iterations: int = 0
    max_rollback_depth: int = 0
    recovery_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_messages": self.checkpoint_messages,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_metadata_repairs": self.checkpoint_metadata_repairs,
            "rank_failures": self.rank_failures,
            "ranks_rebuilt": self.ranks_rebuilt,
            "rollbacks": self.rollbacks,
            "replayed_iterations": self.replayed_iterations,
            "max_rollback_depth": self.max_rollback_depth,
            "recovery_seconds": self.recovery_seconds,
        }


class SimRank:
    """One simulated rank: its persistent buffer pair, protector and links.

    The rank's block lives in a
    :class:`~repro.stencil.doublebuffer.DoubleBufferedGrid` whose
    distributed-axis ghost slabs are externally managed: the runner
    ingests neighbour halo payloads (or synthesises the closed boundary
    condition at the domain edge) straight into the front buffer before
    every sweep, and the remaining axes refresh from the boundary spec
    inside the backend-owned step.
    """

    def __init__(
        self,
        rank: int,
        block: np.ndarray,
        constant: Optional[np.ndarray],
        protector: Optional[OnlineABFT],
        lo_neighbor: Optional[int],
        hi_neighbor: Optional[int],
        global_offset: int,
        radius,
        boundary: BoundarySpec,
        axis: int = DISTRIBUTED_AXIS,
    ) -> None:
        self.rank = int(rank)
        self.axis = int(axis)
        external = (self.axis,) if radius[self.axis] > 0 else ()
        self.buffers = DoubleBufferedGrid(
            block, radius, boundary, external_axes=external
        )
        self.constant = constant
        self.protector = protector
        self.lo_neighbor = lo_neighbor
        self.hi_neighbor = hi_neighbor
        self.global_offset = int(global_offset)
        self.reports: List[StepReport] = []
        #: Fail-stop state: a dead rank posts and answers nothing until
        #: recovery rebuilds it.
        self.alive = True
        #: The rank's own last committed checkpoint (survivor rollback).
        self.own_checkpoint: Optional[Snapshot] = None
        #: Buddy copies this rank holds for its partner(s), keyed by the
        #: owner rank — what recovery rebuilds a dead partner from.
        self.buddy_store: Dict[int, Snapshot] = {}

    @property
    def interior(self) -> np.ndarray:
        """Live view of the rank's current block (front-buffer interior).

        Mutations (injected faults, ABFT corrections) land directly in
        the persistent pair and are picked up by the next halo post and
        ghost refresh.
        """
        return self.buffers.interior

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.buffers.interior_shape


class DistributedStencilRunner:
    """Lock-step driver for a 1D rank decomposition with halo exchange.

    Parameters
    ----------
    grid:
        The global problem definition; its current state is scattered
        across the ranks at construction time.
    n_ranks:
        Number of simulated ranks; the domain is block-distributed along
        ``axis``.
    protect:
        Protect every rank's block with its own OnlineABFT instance.
    backend:
        Compute backend driving every rank's step and checksum
        (registry name or instance; ``None`` follows the process
        default).
    axis:
        Decomposition axis (default 0).  Any axis works, including the
        orderings where the external axis follows refreshed axes.
    checkpoint_period:
        Enable buddy checkpointing with this period (iterations between
        checkpoints).  ``None`` (default) leaves checkpointing **off**
        until a crash-capable injector arrives, at which point it
        auto-enables at the default period — the ABFT detection period
        Δ (:data:`DETECTION_PERIOD`).  A period is turned on through
        :meth:`enable_checkpointing`, so a sole rank raises
        :class:`RecoveryError` here too.
    abft_kwargs:
        Extra keyword arguments for each rank's protector.  They are
        checked against :class:`~repro.core.online.OnlineABFT`'s
        parameters whatever ``protect`` is, so a misspelt or stale
        keyword raises :class:`TypeError` instead of being dropped.

    Notes
    -----
    Each iteration runs the zero-copy rank lifecycle: post strips →
    ingest halos in place → backend-owned step (partial-axis ghost
    refresh + sweep into the back buffer in one call) → swap → inject
    hook, if one is set → verify.  :meth:`OnlineABFT.process` reduces
    the rank's checksum after the hook, so the paper's injection
    semantics hold exactly as in the serial protector, hook or not.
    """

    def __init__(
        self,
        grid: GridBase,
        n_ranks: int = 4,
        protect: bool = True,
        backend: BackendLike = None,
        axis: int = DISTRIBUTED_AXIS,
        checkpoint_period: Optional[int] = None,
        **abft_kwargs,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        unknown = sorted(set(abft_kwargs) - _ABFT_KWARGS)
        if unknown:
            raise TypeError(
                f"DistributedStencilRunner got unexpected keyword "
                f"argument(s) {', '.join(map(repr, unknown))}: extra "
                f"keywords must be OnlineABFT options "
                f"({', '.join(sorted(_ABFT_KWARGS))})"
            )
        if not 0 <= int(axis) < grid.ndim:
            raise ValueError(
                f"axis {axis} out of range for a {grid.ndim}-d grid"
            )
        self.axis = int(axis)
        self.spec: StencilSpec = grid.spec
        self.boundary: BoundarySpec = grid.boundary
        self.radius = grid.spec.radius()
        self.dtype = grid.dtype
        self.global_shape = grid.shape
        self.iteration = grid.iteration
        self.channel = SimChannel()
        self.n_ranks = int(n_ranks)
        self.backend_spec = backend
        self._protect = bool(protect)
        self._abft_kwargs = dict(abft_kwargs)

        axis_bc = self.boundary.axis(self.axis)
        bounds = partition_extent(grid.shape[self.axis], self.n_ranks)

        #: Ghost-slab depth along the distributed axis (the stencil radius).
        self.halo_width = self.radius[self.axis]

        # Buddy checkpointing: each rank ships its snapshot to the next
        # rank around the ring.  Off by default (zero overhead, zero
        # extra allocations for SDC-only runs); enabled explicitly via
        # checkpoint_period / enable_checkpointing, or automatically
        # when a crash-capable injector shows up.
        self.recovery = RecoveryStats()
        self.buddy_of: Dict[int, int] = (
            {r: (r + 1) % self.n_ranks for r in range(self.n_ranks)}
            if self.n_ranks > 1
            else {}
        )
        self._checkpointing = False
        self._last_checkpoint_iteration = self.iteration
        self.checkpoint_period = self._valid_period(
            DETECTION_PERIOD if checkpoint_period is None else checkpoint_period
        )

        self.ranks: List[SimRank] = []
        for r, (start, stop) in enumerate(bounds):
            sl = [slice(None)] * grid.ndim
            sl[self.axis] = slice(start, stop)
            block = np.array(grid.u[tuple(sl)], copy=True)
            const = None
            if grid.constant is not None:
                const = np.array(grid.constant[tuple(sl)], copy=True)
            if axis_bc.is_periodic:
                lo = (r - 1) % self.n_ranks
                hi = (r + 1) % self.n_ranks
            else:
                lo = r - 1 if r > 0 else None
                hi = r + 1 if r < self.n_ranks - 1 else None
            protector = None
            if protect:
                protector = OnlineABFT(
                    self.spec,
                    self.boundary,
                    block.shape,
                    dtype=self.dtype,
                    constant=const,
                    backend=backend,
                    **abft_kwargs,
                )
            self.ranks.append(
                SimRank(
                    rank=r,
                    block=block,
                    constant=const,
                    protector=protector,
                    lo_neighbor=lo,
                    hi_neighbor=hi,
                    global_offset=start,
                    radius=self.radius,
                    boundary=self.boundary,
                    axis=self.axis,
                )
            )
        # Build or load the backend's compiled kernels before the first
        # step, so neither a timed loop nor a forked worker runs the
        # compiler.
        self.backend.warmup()
        if checkpoint_period is not None:
            self.enable_checkpointing()

    @property
    def backend(self):
        """The resolved compute backend (tracks the process default)."""
        return get_backend(self.backend_spec)

    # -- buddy checkpointing --------------------------------------------------
    @staticmethod
    def _valid_period(period: int) -> int:
        period = int(period)
        if period < 1:
            raise ValueError("checkpoint_period must be >= 1")
        return period

    def enable_checkpointing(self, period: Optional[int] = None) -> None:
        """Turn buddy checkpointing on (idempotent) and commit checkpoint 0.

        ``period=None`` keeps the period resolved at construction (the
        ABFT detection period by default).  The initial checkpoint is
        taken immediately so a crash in the very first period can roll
        back to the enable-time state.
        """
        if period is not None:
            self.checkpoint_period = self._valid_period(period)
        if self._checkpointing:
            return
        if self.n_ranks < 2:
            raise RecoveryError(
                "buddy checkpointing needs n_ranks >= 2: a sole rank has "
                "no partner to ship its snapshot to"
            )
        self._checkpointing = True
        self._take_checkpoints()

    def _take_checkpoints(self) -> None:
        """Commit a checkpoint on every rank and ship the buddy copies.

        Each rank snapshots its interior + protector state locally (the
        survivor-rollback copy), sealed with the float64 integrity
        vector of :func:`_checkpoint_checksum`, and sends a copy around
        the buddy ring over the shared channel — two messages per rank
        (domain payload tag ``"ckpt"``, :meth:`Snapshot.meta` vector tag
        ``"ckpt_meta"``), counted in :meth:`SimChannel.traffic` like any
        other traffic but *not* fault-eligible, so halo payload-fault
        ordinals never shift.
        """
        stats = self.recovery
        for rank in self.ranks:
            interior = rank.buffers.snapshot_interior()
            ckpt = Snapshot(
                iteration=self.iteration,
                interior=interior,
                protector=(
                    rank.protector.state_snapshot()
                    if rank.protector is not None
                    else None
                ),
            ).seal(_checkpoint_checksum(interior))
            rank.own_checkpoint = ckpt
            meta = ckpt.meta()
            buddy = self.buddy_of[rank.rank]
            self.channel.send(
                rank.rank, buddy, CKPT_TAG, interior, fault_eligible=False
            )
            self.channel.send(
                rank.rank, buddy, CKPT_META_TAG, meta, fault_eligible=False
            )
            stats.checkpoint_messages += 2
            stats.checkpoint_bytes += int(interior.nbytes) + int(meta.nbytes)
        # Drain the ring: every rank stores the copy its partner shipped.
        for rank in self.ranks:
            src = (rank.rank - 1) % self.n_ranks
            payload = self.channel.recv(src, rank.rank, CKPT_TAG)
            meta = self.channel.recv(src, rank.rank, CKPT_META_TAG)
            owner = self.ranks[src].protector
            cs_dtype = (
                np.float64 if owner is None else owner.checksum_dtype or owner.dtype
            )
            rank.buddy_store[src] = Snapshot.from_meta(meta, payload, cs_dtype)
        stats.checkpoints_taken += 1
        self._last_checkpoint_iteration = self.iteration

    def _maybe_checkpoint(self) -> None:
        if not self._checkpointing:
            return
        if (
            self.iteration - self._last_checkpoint_iteration
            >= self.checkpoint_period
        ):
            self._take_checkpoints()

    def _checked(self, ckpt: Snapshot, owner: int) -> Snapshot:
        """``ckpt`` after the duplicate rule, before it is ever restored.

        A metadata repair is counted; a struck payload raises
        :class:`CheckpointCorrupt` instead of resurrecting corruption.
        """
        if ckpt.verify(_checkpoint_checksum, name=f"checkpoint of rank {owner}"):
            self.recovery.checkpoint_metadata_repairs += 1
        return ckpt

    def _rebuild_rank(self, r: int, ckpt: Snapshot) -> None:
        """Re-instantiate a dead rank from its buddy's checkpoint copy.

        The replacement (a spare in real MPI) inherits the topology of
        the old rank — neighbours, offset, constant block, which are
        problem definition, not lost state — and restores domain +
        protector state from the verified checkpoint.  Its ghost slabs
        start cold and are re-warmed before first read: the distributed
        axis by the next halo ingest, every other axis by the backend's
        per-step boundary refresh.
        """
        old = self.ranks[r]
        protector = None
        if old.protector is not None:
            protector = OnlineABFT(
                self.spec,
                self.boundary,
                ckpt.interior.shape,
                dtype=self.dtype,
                constant=old.constant,
                backend=self.backend_spec,
                **self._abft_kwargs,
            )
            if ckpt.protector is not None:
                protector.state_restore(ckpt.protector)
        rebuilt = SimRank(
            rank=r,
            block=ckpt.interior,
            constant=old.constant,
            protector=protector,
            lo_neighbor=old.lo_neighbor,
            hi_neighbor=old.hi_neighbor,
            global_offset=old.global_offset,
            radius=self.radius,
            boundary=self.boundary,
            axis=self.axis,
        )
        # Keep the globally aggregated report history (truncated to the
        # checkpoint) — the runner owns it, not the dead process.
        rebuilt.reports = [
            rep for rep in old.reports if rep.iteration <= ckpt.iteration
        ]
        rebuilt.own_checkpoint = ckpt
        self.ranks[r] = rebuilt

    def _recover(self, failure: RankFailure, inject=None) -> None:
        """Roll back to the last committed checkpoint and rebuild the dead.

        The full local-recovery protocol: purge aborted traffic, rebuild
        every failed rank from its buddy's verified copy, roll survivors
        back to their own verified snapshots (domain + protector
        checksums *and* counters), truncate the report history, re-arm
        SDC plans inside the replayed window, and re-commit a fresh
        checkpoint so the ring is protected again before the replay.
        """
        t0 = perf_counter()
        stats = self.recovery
        failed = sorted(self.channel.failed_ranks)
        if not failed:
            raise failure
        if not self._checkpointing:
            raise RecoveryError(
                f"rank(s) {failed} failed but buddy checkpointing was never "
                f"enabled — no committed state to roll back to"
            ) from failure
        stats.rank_failures += len(failed)
        completed = self.iteration
        self.channel.purge()
        for r in failed:
            buddy = self.buddy_of[r]
            if buddy in failed:
                raise RecoveryError(
                    f"rank {r} and its buddy rank {buddy} both failed in "
                    f"the same checkpoint interval: the in-memory copy is "
                    f"gone (buddy checkpointing tolerates one failure per "
                    f"ring segment)"
                ) from failure
            ckpt = self.ranks[buddy].buddy_store.get(r)
            if ckpt is None:
                raise RecoveryError(
                    f"rank {buddy} holds no buddy checkpoint for dead "
                    f"rank {r}"
                ) from failure
            self._rebuild_rank(r, self._checked(ckpt, owner=r))
            self.channel.revive(r)
            stats.ranks_rebuilt += 1
        ckpt_iteration = self._last_checkpoint_iteration
        for rank in self.ranks:
            if rank.rank in failed:
                continue
            own = rank.own_checkpoint
            if own is None:
                raise RecoveryError(
                    f"surviving rank {rank.rank} holds no checkpoint to "
                    f"roll back to"
                ) from failure
            self._checked(own, owner=rank.rank)
            rank.buffers.restore_interior(own.interior)
            if rank.protector is not None and own.protector is not None:
                rank.protector.state_restore(own.protector)
            rank.reports = [
                rep for rep in rank.reports if rep.iteration <= own.iteration
            ]
        depth = max(0, completed - ckpt_iteration)
        stats.rollbacks += 1
        stats.replayed_iterations += depth
        stats.max_rollback_depth = max(stats.max_rollback_depth, depth)
        self.iteration = ckpt_iteration
        # Soft errors inside the replayed window are part of the
        # trajectory and must strike again; crashes stay consumed.
        rewind = getattr(inject, "rewind", None)
        if rewind is not None:
            rewind(ckpt_iteration)
        # Re-commit immediately: the ring lost the copies the dead rank
        # held for its partner, so re-establish full protection before
        # replaying.
        self._take_checkpoints()
        stats.recovery_seconds += perf_counter() - t0

    # -- halo exchange -------------------------------------------------------------
    def _post_halos(self) -> None:
        width = self.halo_width
        if width == 0:
            return
        for rank in self.ranks:
            if not rank.alive:
                # Fail-stop: a dead rank posts nothing.  Its neighbours'
                # receives (or the heartbeat round) surface the failure.
                continue
            interior = rank.interior
            if rank.lo_neighbor is not None:
                strip = boundary_strip(interior, self.axis, "low", width)
                self.channel.send(rank.rank, rank.lo_neighbor, "to_hi", strip)
            if rank.hi_neighbor is not None:
                strip = boundary_strip(interior, self.axis, "high", width)
                self.channel.send(rank.rank, rank.hi_neighbor, "to_lo", strip)

    def _ingest_halos(self, rank: SimRank) -> None:
        """Write halo messages / edge boundary straight into the front buffer.

        Neighbour payloads land in the distributed-axis ghost slabs of
        the rank's persistent front buffer (no concatenation, no fresh
        padded block); domain-edge sides synthesise the closed boundary
        condition in place.  The remaining axes' ghost corners are then
        rebuilt over these slabs by the backend's partial-axis refresh
        during the step, matching the serial ``pad_array`` order
        bit for bit.
        """
        width = self.halo_width
        if width == 0:
            return
        front = rank.buffers.front
        axis_bc = self.boundary.axis(self.axis)
        if rank.lo_neighbor is not None:
            payload = self.channel.recv(rank.lo_neighbor, rank.rank, "to_lo")
            ingest_halo(front, self.radius, self.axis, "low", payload)
        else:
            synthesize_ghost_into(
                front, self.radius, self.axis, "low", axis_bc
            )
        if rank.hi_neighbor is not None:
            payload = self.channel.recv(rank.hi_neighbor, rank.rank, "to_hi")
            ingest_halo(front, self.radius, self.axis, "high", payload)
        else:
            synthesize_ghost_into(
                front, self.radius, self.axis, "high", axis_bc
            )

    # -- stepping --------------------------------------------------------------------
    def step(self, inject=None) -> List[StepReport]:
        """One distributed sweep: exchange halos, sweep, verify per rank.

        Self-recovering: a :class:`RankFailure` raised mid-step triggers
        buddy-checkpoint recovery and the rolled-back window is replayed
        until this step's iteration is (re-)committed.  The returned
        reports are the final committed ones for the step.
        """
        if (
            inject is not None
            and getattr(inject, "has_crash_plans", False)
            and not self._checkpointing
        ):
            self.enable_checkpointing()
        start_counts = [len(rank.reports) for rank in self.ranks]
        self._advance_to(self.iteration + 1, inject)
        return self._collect_reports(start_counts[0])

    def _advance_to(self, target: int, inject=None) -> None:
        """Advance committed iterations to ``target``, recovering on failure."""
        attempts = 0
        while self.iteration < target:
            try:
                self._step_once(inject)
            except RankFailure as failure:
                attempts += 1
                if attempts > self.n_ranks:
                    raise RecoveryError(
                        f"giving up after {attempts} recovery attempts "
                        f"while advancing to iteration {target}"
                    ) from failure
                self._recover(failure, inject)

    def _step_once(self, inject=None) -> None:
        """One lock-step distributed sweep in three phases.

        Phase 1 delivers due fail-stop plans, runs the heartbeat round
        and posts every live rank's strips; phase 2 ingests halos (and
        fires ghost hooks) on every rank; phase 3 sweeps + verifies per
        rank.  Ranks only read their *own* buffers during phase 3, so
        the phase split is bit-identical to the historical interleaved
        loop — and it guarantees a failure is detected before any rank
        has swept, keeping recovery a pure rollback.
        """
        if inject is not None:
            crash_hook = getattr(inject, "apply_crashes", None)
            if crash_hook is not None:
                crash_hook(self, self.iteration + 1)
        if self.channel.has_failures:
            self.channel.check_liveness(range(self.n_ranks))
        self._post_halos()
        self.iteration += 1
        backend = self.backend

        # Region-targeted hooks may corrupt a just-ingested ghost slab —
        # after halo ingestion, before the sweep reads it.
        ghost_hook = getattr(inject, "inject_ghosts", None)

        for rank in self.ranks:
            self._ingest_halos(rank)
            if ghost_hook is not None:
                ghost_hook(self, self.iteration, rank)

        for rank in self.ranks:
            src_padded, _ = rank.buffers.step(
                backend, self.spec, constant=rank.constant
            )
            rank.buffers.swap()
            if inject is not None:
                inject(self, self.iteration, rank)
            if rank.protector is not None:
                # ``process`` reduces the block as the hook left it.
                report = rank.protector.process(
                    rank.interior, src_padded, self.iteration
                )
            else:
                report = StepReport(
                    iteration=self.iteration, detection_performed=False
                )
            rank.reports.append(report)
        self._maybe_checkpoint()

    def _collect_reports(self, start_index: int) -> List[StepReport]:
        """Iteration-major reports committed since ``start_index``.

        Assembled from the per-rank histories rather than accumulated
        on the fly: recovery truncates and replays those histories, so
        only the committed tail is authoritative.
        """
        reports: List[StepReport] = []
        if not self.ranks:
            return reports
        for i in range(start_index, len(self.ranks[0].reports)):
            for rank in self.ranks:
                reports.append(rank.reports[i])
        return reports

    def run(self, iterations: int, inject=None) -> List[StepReport]:
        """Advance ``iterations`` distributed sweeps.

        Injectors carrying fail-stop plans auto-enable buddy
        checkpointing before the first sweep, and every committed
        iteration is guarded by the self-recovering step path.
        """
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        if (
            inject is not None
            and getattr(inject, "has_crash_plans", False)
            and not self._checkpointing
        ):
            self.enable_checkpointing()
        all_reports: List[StepReport] = []
        for _ in range(iterations):
            all_reports.extend(self.step(inject=inject))
        return all_reports

    # -- gather / bookkeeping -----------------------------------------------------------
    def gather(self) -> np.ndarray:
        """Assemble the global domain from all rank blocks."""
        return np.concatenate(
            [rank.interior for rank in self.ranks], axis=self.axis
        )

    def total_detected(self) -> int:
        return sum(
            r.protector.total_detections for r in self.ranks if r.protector is not None
        )

    def total_corrected(self) -> int:
        return sum(
            r.protector.total_corrections for r in self.ranks if r.protector is not None
        )

    def rank_of_global_index(self, index) -> Tuple[int, Tuple[int, ...]]:
        """Map a global domain index to ``(rank, local index)``."""
        index = tuple(int(i) for i in index)
        pos = index[self.axis]
        for rank in self.ranks:
            size = rank.shape[self.axis]
            if rank.global_offset <= pos < rank.global_offset + size:
                local = list(index)
                local[self.axis] = pos - rank.global_offset
                return rank.rank, tuple(local)
        raise ValueError(f"index {index} outside the global domain")
