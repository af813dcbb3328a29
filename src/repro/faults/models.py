"""Pluggable fault models: the adversarial fault surface of the campaigns.

The paper's campaign model (Section 5.1) is a *single* uniformly random
bit flip in one domain value.  Every other layer of a real machine can
fail too, and the broader ABFT literature evaluates against exactly
those surfaces: multi-bit bursts from a single upset event, MTBF-driven
arrival processes across long runs and across ranks, and corruption
striking the protection machinery itself — stored checksum vectors,
just-ingested ghost slabs, in-flight halo messages.

This module makes the fault model a first-class, pluggable axis of every
campaign:

:class:`FaultModel`
    The protocol: ``draw(rng, shape, iterations, dtype)`` returns the
    run's :class:`~repro.faults.injector.FaultPlan` list.
:class:`SingleBitFlip`
    The legacy paper model, refactored behind the protocol — its RNG
    consumption is byte-identical to the historical
    ``random_fault_plan`` loop, so existing campaign records stay
    bitwise reproducible.
:class:`MultiBitBurst`
    One upset event corrupting a spatial cluster of points in the same
    iteration (anchor + ``burst_size - 1`` neighbours within a
    Chebyshev ``spread``).
:class:`PoissonArrival`
    Arrivals of a memoryless process with the given MTBF (in
    iterations); registered as ``"mtbf"``.  A run may legitimately draw
    zero faults.
:class:`RegionTargeted`
    Corruption aimed at a specific region: ``interior`` domain values,
    ``ghost`` slabs of a distributed rank, stored ``checksum`` vectors,
    or in-flight ``payload`` messages on the
    :class:`~repro.parallel.simmpi.SimChannel`.

A serial run fires its domain and checksum plans through the one
:class:`~repro.faults.injector.FaultInjector`, which refuses the targets
only a distributed run has (ghost, payload, crash);
:class:`DistributedFaultInjector` covers every region on a
:class:`~repro.parallel.simmpi.DistributedStencilRunner`.  Both flip
through :func:`~repro.faults.injector.flip_plan`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.bitflip import bit_width
from repro.faults.injector import (
    FaultPlan,
    _corrupt_stored_checksum,
    flip_plan,
    random_fault_plan,
)

__all__ = [
    "FaultModel",
    "SingleBitFlip",
    "MultiBitBurst",
    "PoissonArrival",
    "RegionTargeted",
    "RankCrash",
    "make_fault_model",
    "available_fault_models",
    "DistributedFaultInjector",
]


# ---------------------------------------------------------------------------
# The model protocol
# ---------------------------------------------------------------------------
class FaultModel(ABC):
    """A distribution over per-run fault plans.

    Implementations are small frozen dataclasses: hashable (so campaign
    configurations that embed a model still compare/hash by value) and
    picklable (so they travel to process-pool campaign workers).
    """

    #: Registry name of the model (class attribute, not a dataclass field).
    name: str = "fault-model"

    @abstractmethod
    def draw(
        self,
        rng: np.random.Generator,
        shape: Sequence[int],
        iterations: int,
        dtype=np.float32,
    ) -> List[FaultPlan]:
        """Draw one run's fault plans (possibly an empty list)."""


@dataclass(frozen=True)
class SingleBitFlip(FaultModel):
    """The paper's Section 5.1 model: uniform single bit flips.

    ``faults_per_run`` independent flips, each uniform over iteration,
    domain point and (unless ``bit`` pins it) bit position.  The draw
    consumes the RNG exactly like the legacy
    ``random_fault_plan``-per-fault loop, so campaigns keyed by seed
    reproduce their historical records bit for bit.
    """

    faults_per_run: int = 1
    bit: Optional[int] = None

    name = "bitflip"

    def __post_init__(self) -> None:
        if self.faults_per_run < 1:
            raise ValueError("faults_per_run must be >= 1")

    def draw(self, rng, shape, iterations, dtype=np.float32) -> List[FaultPlan]:
        return [
            random_fault_plan(rng, shape, iterations, dtype=dtype, bit=self.bit)
            for _ in range(self.faults_per_run)
        ]


@dataclass(frozen=True)
class MultiBitBurst(FaultModel):
    """One upset event corrupting a spatial cluster in a single iteration.

    An anchor flip is drawn exactly like :class:`SingleBitFlip`; the
    remaining ``burst_size - 1`` flips strike the same iteration at
    offsets within a Chebyshev radius of ``spread`` around the anchor
    (clipped to the domain), each with its own bit position.
    """

    burst_size: int = 3
    spread: int = 1
    bit: Optional[int] = None

    name = "burst"

    def __post_init__(self) -> None:
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.spread < 0:
            raise ValueError("spread must be >= 0")

    def draw(self, rng, shape, iterations, dtype=np.float32) -> List[FaultPlan]:
        anchor = random_fault_plan(
            rng, shape, iterations, dtype=dtype, bit=self.bit
        )
        plans = [anchor]
        for _ in range(self.burst_size - 1):
            index = tuple(
                min(max(i + int(rng.integers(-self.spread, self.spread + 1)), 0), n - 1)
                for i, n in zip(anchor.index, shape)
            )
            bit = self.bit
            if bit is None:
                bit = int(rng.integers(0, bit_width(dtype)))
            plans.append(
                FaultPlan(iteration=anchor.iteration, index=index, bit=bit)
            )
        return plans


@dataclass(frozen=True)
class PoissonArrival(FaultModel):
    """Memoryless fault arrivals with a mean time between faults (MTBF).

    Inter-arrival gaps are exponential with mean ``mtbf`` iterations;
    every arrival within the run strikes a uniform point and bit.  Runs
    shorter than the first gap draw **no** fault — the correct behaviour
    for an MTBF model, and one the campaign plumbing must support
    (records with an empty plan list).
    """

    mtbf: float = 64.0
    bit: Optional[int] = None

    name = "mtbf"

    def __post_init__(self) -> None:
        if not self.mtbf > 0:
            raise ValueError("mtbf must be > 0 iterations")

    def draw(self, rng, shape, iterations, dtype=np.float32) -> List[FaultPlan]:
        plans: List[FaultPlan] = []
        t = float(rng.exponential(self.mtbf))
        while t < iterations:
            iteration = int(np.floor(t)) + 1
            index = tuple(int(rng.integers(0, n)) for n in shape)
            bit = self.bit
            if bit is None:
                bit = int(rng.integers(0, bit_width(dtype)))
            plans.append(FaultPlan(iteration=iteration, index=index, bit=bit))
            t += float(rng.exponential(self.mtbf))
        return plans


#: Checksum accumulation dtype the protectors default to; the checksum
#: region draws its bit positions over this width so flips can land in
#: the exponent/sign fields of the stored float64 vectors.
_CHECKSUM_DTYPE = np.float64


@dataclass(frozen=True)
class RegionTargeted(FaultModel):
    """Corruption aimed at a specific region of the machine state.

    ``region`` selects the target:

    ``"interior"``
        A domain value (equivalent to a single :class:`SingleBitFlip`).
    ``"checksum"``
        An element of the protector's *stored* checksum vector for
        ``axis`` — the metadata the duplicated-checksum self-check of
        both protectors defends.
    ``"ghost"``
        A point of a just-ingested ghost slab (distributed runs only):
        the side selects the slab of the distributed axis, the index
        addresses the slab's innermost layer.  ``axis`` must be the
        distributed axis (:data:`repro.parallel.simmpi.DISTRIBUTED_AXIS`),
        the only one with ingested slabs.
    ``"payload"``
        An in-flight halo message on the
        :class:`~repro.parallel.simmpi.SimChannel`; ``index[0]`` is a
        draw :meth:`DistributedFaultInjector.payload_strike` maps onto a
        flat offset of the strip.  ``action`` chooses ``"corrupt"`` (bit
        flip, CRC-detected) or ``"drop"``.
    """

    region: str = "checksum"
    axis: int = 0
    bit: Optional[int] = None
    action: str = "corrupt"

    name = "region"

    REGIONS = ("interior", "ghost", "checksum", "payload")

    def __post_init__(self) -> None:
        if self.region not in self.REGIONS:
            raise ValueError(
                f"unknown region {self.region!r}; expected one of {self.REGIONS}"
            )
        if self.action not in ("corrupt", "drop"):
            raise ValueError(
                f"unknown action {self.action!r}; expected 'corrupt' or 'drop'"
            )
        if self.region == "ghost":
            from repro.parallel.simmpi import DISTRIBUTED_AXIS

            if self.axis != DISTRIBUTED_AXIS:
                raise ValueError(
                    f"a ghost region has slabs only along the distributed "
                    f"axis {DISTRIBUTED_AXIS}, not axis {self.axis}"
                )

    def draw(self, rng, shape, iterations, dtype=np.float32) -> List[FaultPlan]:
        if iterations < 1:
            raise ValueError("need at least one iteration to inject into")
        shape = tuple(int(n) for n in shape)
        iteration = int(rng.integers(1, iterations + 1))
        if self.region == "interior":
            index = tuple(int(rng.integers(0, n)) for n in shape)
            bit = self.bit
            if bit is None:
                bit = int(rng.integers(0, bit_width(dtype)))
            return [FaultPlan(iteration=iteration, index=index, bit=bit)]
        if self.region == "checksum":
            # The stored checksum vector has the domain shape with the
            # reduced axis removed.
            cs_shape = tuple(
                n for ax, n in enumerate(shape) if ax != self.axis
            ) or (1,)
            index = tuple(int(rng.integers(0, n)) for n in cs_shape)
            bit = self.bit
            if bit is None:
                bit = int(rng.integers(0, bit_width(_CHECKSUM_DTYPE)))
            return [
                FaultPlan(
                    iteration=iteration,
                    index=index,
                    bit=bit,
                    target="checksum",
                    axis=self.axis,
                )
            ]
        if self.region == "ghost":
            slab_shape = tuple(
                1 if ax == self.axis else n for ax, n in enumerate(shape)
            )
            index = tuple(int(rng.integers(0, n)) for n in slab_shape)
            side = int(rng.integers(0, 2))
            bit = self.bit
            if bit is None:
                bit = int(rng.integers(0, bit_width(dtype)))
            return [
                FaultPlan(
                    iteration=iteration,
                    index=index,
                    bit=bit,
                    target="ghost",
                    axis=self.axis,
                    side=side,
                )
            ]
        # payload
        offset = int(rng.integers(0, max(1, int(np.prod(shape)))))
        side = int(rng.integers(0, 2))
        bit = self.bit
        if bit is None:
            bit = int(rng.integers(0, bit_width(dtype)))
        return [
            FaultPlan(
                iteration=iteration,
                index=(offset,),
                bit=bit,
                target="payload",
                axis=self.axis,
                side=side,
                action=self.action,
            )
        ]


@dataclass(frozen=True)
class RankCrash(FaultModel):
    """Fail-stop rank death for the distributed runner.

    Unlike every other model in this registry, a crash is not a silent
    corruption: the victim rank stops posting and answering messages at
    the start of the crash iteration, and the runner's buddy-checkpoint
    recovery must bring it back.  Deterministic experiments pin
    ``at_iteration`` and ``rank``; leaving either ``None`` draws it
    uniformly.  Setting ``mtbf`` instead samples the crash time from
    the same exponential arrival process as :class:`PoissonArrival`
    (one system-wide crash process — a run whose first arrival falls
    beyond the horizon legitimately crashes no rank, so campaigns see
    a realistic mix of disturbed and undisturbed runs).

    ``bitflips`` extra uniform SDC plans are mixed into the same draw,
    so one model covers the combined fail-stop + silent-fault scenario
    the recovery path must survive.
    """

    at_iteration: Optional[int] = None
    rank: Optional[int] = None
    mtbf: Optional[float] = None
    n_ranks: int = 4
    bitflips: int = 0
    bit: Optional[int] = None

    name = "rank-crash"

    def __post_init__(self) -> None:
        if self.n_ranks < 2:
            raise ValueError(
                "rank-crash needs n_ranks >= 2: a sole rank has no buddy "
                "to recover from"
            )
        if self.at_iteration is not None and self.at_iteration < 1:
            raise ValueError("crash iterations are 1-based; got < 1")
        if self.rank is not None and not 0 <= self.rank < self.n_ranks:
            raise ValueError(
                f"crash rank {self.rank} out of range for {self.n_ranks} ranks"
            )
        if self.mtbf is not None and not self.mtbf > 0:
            raise ValueError("mtbf must be > 0 iterations")
        if self.at_iteration is not None and self.mtbf is not None:
            raise ValueError("pin at_iteration or draw from mtbf, not both")
        if self.bitflips < 0:
            raise ValueError("bitflips must be >= 0")

    def _draw_crash(self, rng, iterations: int) -> Tuple[Optional[int], int]:
        """(crash iteration or None, victim rank) — fixed RNG order.

        A pinned ``at_iteration`` past the horizon raises: the run would
        never reach it.  ``mtbf`` arrivals beyond the horizon stay legal.
        """
        if self.at_iteration is not None:
            if self.at_iteration > iterations:
                raise ValueError(
                    f"crash iteration {self.at_iteration} is beyond the run's "
                    f"{iterations} iterations: the rank would never crash"
                )
            iteration: Optional[int] = int(self.at_iteration)
        elif self.mtbf is not None:
            t = float(rng.exponential(self.mtbf))
            iteration = int(np.floor(t)) + 1 if t < iterations else None
        else:
            iteration = int(rng.integers(1, iterations + 1))
        victim = self.rank
        if victim is None:
            victim = int(rng.integers(0, self.n_ranks))
        return iteration, int(victim)

    def draw(self, rng, shape, iterations, dtype=np.float32) -> List[FaultPlan]:
        if iterations < 1:
            raise ValueError("need at least one iteration to inject into")
        iteration, victim = self._draw_crash(rng, iterations)
        plans: List[FaultPlan] = []
        if iteration is not None:
            plans.append(
                FaultPlan(
                    iteration=iteration,
                    index=(),
                    bit=0,
                    target="crash",
                    rank=victim,
                )
            )
        for _ in range(self.bitflips):
            plans.append(
                random_fault_plan(rng, shape, iterations, dtype=dtype, bit=self.bit)
            )
        return plans


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def _crash_mtbf_factory(**kwargs) -> FaultModel:
    kwargs.setdefault("mtbf", 64.0)
    return RankCrash(**kwargs)


#: The models ``repro campaign --fault-model`` offers: every one runs a
#: serial or fail-stop campaign.  ``region-checksum`` is
#: ``RegionTargeted``'s default region; its ghost and payload regions
#: strike a distributed run's halos, so they are built directly for
#: :class:`DistributedFaultInjector`.
_REGISTRY: Dict[str, Callable[..., FaultModel]] = {
    "bitflip": SingleBitFlip,
    "burst": MultiBitBurst,
    "mtbf": PoissonArrival,
    "region-checksum": RegionTargeted,
    "rank-crash": RankCrash,
    "rank-crash-mtbf": _crash_mtbf_factory,
}


def make_fault_model(name: str, **kwargs) -> FaultModel:
    """Build a registered fault model by name with the given parameters."""
    factory = _REGISTRY.get(str(name))
    if factory is None:
        raise ValueError(
            f"unknown fault model {name!r}; available: "
            f"{', '.join(available_fault_models())}"
        )
    return factory(**kwargs)


def available_fault_models() -> List[str]:
    """Registered fault-model names, sorted."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# The distributed injection hook
# ---------------------------------------------------------------------------
class DistributedFaultInjector:
    """Inject hook for the distributed runner covering every target region.

    Parameters
    ----------
    runner:
        The :class:`~repro.parallel.simmpi.DistributedStencilRunner`
        under attack.  A plan it could never fire is refused here: a
        payload plan of a rank that sends nothing, a ghost plan with
        ``halo_width == 0``, a checksum plan of an unprotected rank.
    plans_by_rank:
        One plan list per rank, in rank order, with rank-local indices
        (:meth:`from_global` maps global-domain plans onto them).

    Notes
    -----
    The runner invokes the hook as ``inject(runner, iteration, rank)``
    after each rank's sweep (domain and checksum targets) and — when the
    hook exposes them — ``apply_crashes(runner, iteration)`` before the
    iteration's halo post, ``payload_strike(iteration, rank, side)`` for
    each strip it posts, and ``inject_ghosts(runner, iteration, rank)``
    right after halo ingestion, before the sweep reads the ghost slabs.
    Every plan fires once; :meth:`rewind` re-arms the SDC plans of a
    window that recovery replays.  A message takes one strike, so two
    payload plans of one rank that strike the same link in the same
    iteration are refused with a ``ValueError`` naming both.
    """

    def __init__(self, runner, plans_by_rank: Sequence[Sequence[FaultPlan]]) -> None:
        n_ranks = len(runner.ranks)
        if len(plans_by_rank) != n_ranks:
            raise ValueError(
                f"plans_by_rank has {len(plans_by_rank)} entries for "
                f"{n_ranks} ranks"
            )
        self.plans_by_rank: List[List[FaultPlan]] = [
            list(p) for p in plans_by_rank
        ]
        self._fired: set = set()
        self.has_crash_plans = any(p.target == "crash" for p in self.plans)
        if self.has_crash_plans and n_ranks < 2:
            raise ValueError(
                "crash plans need n_ranks >= 2: a sole rank has no "
                "buddy checkpoint to recover from"
            )
        for rank, rank_plans in zip(runner.ranks, self.plans_by_rank):
            links = (rank.lo_neighbor, rank.hi_neighbor)
            # Why a plan of each target could never fire on this rank.
            unfireable: Dict[str, str] = {}
            if runner.halo_width == 0 or links == (None, None):
                unfireable["payload"] = (
                    "sends no messages (single rank, closed boundary, or a "
                    "radius-0 axis?)"
                )
            if runner.halo_width == 0:
                unfireable["ghost"] = "has no axis-0 ghost cells (radius 0)"
            if rank.protector is None:
                unfireable["checksum"] = "is unprotected (no stored checksum)"
            for plan in rank_plans:
                if plan.target in unfireable:
                    raise ValueError(
                        f"{plan.target} plan {plan!r} cannot fire: rank "
                        f"{rank.rank} {unfireable[plan.target]}"
                    )
            payload = [p for p in rank_plans if p.target == "payload"]
            # A message takes one strike (payload_strike): two plans on
            # one link in one iteration would leave one unfired.
            struck: Dict[Tuple[int, int], FaultPlan] = {}
            for plan in payload:
                side = self._link(plan, links)
                key = (plan.iteration, side)
                if key in struck:
                    raise ValueError(
                        f"payload plans {struck[key]!r} and {plan!r} strike "
                        f"the one message rank {rank.rank} sends to side "
                        f"{side} in iteration {plan.iteration}; a message "
                        f"takes one strike"
                    )
                struck[key] = plan

    @classmethod
    def from_global(cls, runner, plans: Sequence[FaultPlan]) -> "DistributedFaultInjector":
        """Map global-domain (and crash) plans onto the owning ranks."""
        per_rank: List[List[FaultPlan]] = [[] for _ in runner.ranks]
        for plan in plans:
            if plan.target == "crash":
                # Crash plans carry their victim explicitly — there is no
                # global index to translate.
                r = plan.rank if plan.rank is not None else 0
                if not 0 <= r < len(per_rank):
                    raise ValueError(
                        f"crash victim rank {r} out of range for "
                        f"{len(per_rank)} ranks"
                    )
                per_rank[r].append(plan)
                continue
            if plan.target != "domain":
                raise ValueError(
                    f"from_global only maps 'domain' and 'crash' plans, got "
                    f"a {plan.target!r} plan; pass plans of other targets "
                    f"per rank to DistributedFaultInjector(runner, plans_by_rank)"
                )
            r, local = runner.rank_of_global_index(plan.index)
            per_rank[r].append(
                FaultPlan(iteration=plan.iteration, index=local, bit=plan.bit)
            )
        return cls(runner, per_rank)

    @property
    def plans(self) -> List[FaultPlan]:
        return [p for rank_plans in self.plans_by_rank for p in rank_plans]

    @property
    def fired_count(self) -> int:
        return len(self._fired)

    def _due(self, rank: int, target: str, iteration: int):
        """``(key, plan)`` of each unfired ``target`` plan of ``rank`` due now."""
        for i, plan in enumerate(self.plans_by_rank[rank]):
            due = plan.target == target and plan.iteration == iteration
            if due and (rank, i) not in self._fired:
                yield (rank, i), plan

    # -- hook entry points -----------------------------------------------------
    def __call__(self, runner, iteration: int, rank) -> None:
        """Post-sweep targets: domain values and stored checksums."""
        for key, plan in self._due(rank.rank, "domain", iteration):
            self._fired.add(key)
            flip_plan(rank.interior, plan)
        for key, plan in self._due(rank.rank, "checksum", iteration):
            self._fired.add(key)
            _corrupt_stored_checksum(rank.protector, plan)

    def apply_crashes(self, runner, iteration: int) -> None:
        """Deliver due fail-stop plans: the channel marks each victim failed.

        Called by the runner at the *start* of ``iteration``, before its
        heartbeat round, which then raises
        :class:`~repro.parallel.simmpi.RankFailure` before any halo is
        posted.
        """
        for r in range(len(self.plans_by_rank)):
            for key, plan in self._due(r, "crash", iteration):
                self._fired.add(key)
                victim = plan.rank if plan.rank is not None else r
                runner.channel.mark_failed(victim)

    @staticmethod
    def _link(plan: FaultPlan, links) -> int:
        """The side ``plan`` strikes: its own, or the live link when that
        side is a closed domain edge."""
        return plan.side if links[plan.side] is not None else 1 - plan.side

    def payload_strike(
        self, iteration: int, rank, side: int
    ) -> Optional[Tuple[str, int, int]]:
        """``SimChannel.send``'s strike for ``rank``'s strip to ``side``.

        A payload plan strikes the strip its rank sends to the low (0)
        or high (1) neighbour in its iteration — at a closed domain edge
        the one live link — at its ``index[0]`` modulo the strip size.
        """
        from repro.parallel.simmpi import DISTRIBUTED_AXIS

        links = (rank.lo_neighbor, rank.hi_neighbor)
        for key, plan in self._due(rank.rank, "payload", iteration):
            if self._link(plan, links) == side:
                self._fired.add(key)
                strip = (
                    rank.interior.size // rank.shape[DISTRIBUTED_AXIS]
                    * rank.buffers.radius[DISTRIBUTED_AXIS]
                )
                return plan.action, plan.index[0] % strip, plan.bit
        return None

    def rewind(self, iteration: int) -> None:
        """Re-arm SDC plans inside a rolled-back window (recovery replay).

        A transient *soft error* that struck after the restored
        checkpoint is part of the trajectory being replayed, so every
        non-crash plan with ``plan.iteration > iteration`` fires again —
        that is what keeps a recovered run bitwise-identical to the
        failure-free run under concurrent SDC injection.  Crash plans
        stay fired: a restored rank does not re-die.
        """
        for r, i in list(self._fired):
            plan = self.plans_by_rank[r][i]
            if plan.target != "crash" and plan.iteration > iteration:
                self._fired.discard((r, i))

    def inject_ghosts(self, runner, iteration: int, rank) -> None:
        """Pre-sweep target: a just-ingested ghost slab of ``rank``."""
        from repro.parallel.halo import ghost_slab
        from repro.parallel.simmpi import DISTRIBUTED_AXIS

        for key, plan in self._due(rank.rank, "ghost", iteration):
            self._fired.add(key)
            slab = ghost_slab(
                rank.buffers.front,
                runner.radius,
                DISTRIBUTED_AXIS,
                "low" if plan.side == 0 else "high",
            )
            flip_plan(slab, plan)
