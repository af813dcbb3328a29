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
    run's :class:`~repro.faults.injector.FaultPlan` list;
    ``draw_for_ranks`` extends a draw across a rank decomposition.
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
    zero faults.  Across ranks the *system* MTBF is preserved: each of
    ``n`` ranks sees a per-rank MTBF of ``n * mtbf``.
:class:`RegionTargeted`
    Corruption aimed at a specific region: ``interior`` domain values,
    ``ghost`` slabs of a distributed rank, stored ``checksum`` vectors,
    or in-flight ``payload`` messages on the
    :class:`~repro.parallel.simmpi.SimChannel`.

Plans whose ``target`` is not ``"domain"`` need richer hooks than the
plain :class:`~repro.faults.injector.FaultInjector`:
:func:`make_injector` builds the right hook for a serial run (domain +
checksum targets), and :class:`DistributedFaultInjector` covers every
region on a :class:`~repro.parallel.simmpi.DistributedStencilRunner`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.bitflip import bit_width, flip_bit_in_array
from repro.faults.injector import (
    FaultInjector,
    FaultPlan,
    random_fault_plan,
    validate_plan_index,
)

__all__ = [
    "FaultModel",
    "SingleBitFlip",
    "MultiBitBurst",
    "PoissonArrival",
    "RegionTargeted",
    "RankCrash",
    "register_fault_model",
    "make_fault_model",
    "available_fault_models",
    "ChecksumInjector",
    "CompositeInjector",
    "make_injector",
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

    def draw_for_ranks(
        self,
        rng: np.random.Generator,
        shapes: Sequence[Sequence[int]],
        iterations: int,
        dtype=np.float32,
    ) -> List[List[FaultPlan]]:
        """One plan list per rank block (default: independent draws)."""
        return [
            self.draw(rng, shape, iterations, dtype=dtype) for shape in shapes
        ]


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

    Across a rank decomposition the *system* MTBF is preserved: with
    ``n`` rank blocks each sees an independent arrival process of mean
    ``n * mtbf``, so the aggregate fault rate matches the single-block
    draw regardless of scale — the weak-scaling assumption of
    MTBF-driven campaigns.
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

    def draw_for_ranks(
        self, rng, shapes, iterations, dtype=np.float32
    ) -> List[List[FaultPlan]]:
        n = max(1, len(shapes))
        scaled = PoissonArrival(mtbf=self.mtbf * n, bit=self.bit)
        return [
            scaled.draw(rng, shape, iterations, dtype=dtype) for shape in shapes
        ]


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
        ``axis`` — the metadata the duplicated-checksum self-check
        defends (see ``metadata_self_check`` on the protectors).
    ``"ghost"``
        A point of a just-ingested ghost slab (distributed runs only):
        ``axis``/side select the slab, the index addresses the slab's
        innermost layer.
    ``"payload"``
        An in-flight halo message on the
        :class:`~repro.parallel.simmpi.SimChannel`; ``index[0]`` is a
        draw the scheduler maps onto a flat payload offset.  ``action``
        chooses ``"corrupt"`` (bit flip, CRC-detected) or ``"drop"``.
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

    def draw_for_ranks(
        self, rng, shapes, iterations, dtype=np.float32
    ) -> List[List[FaultPlan]]:
        n = len(shapes)
        if n != self.n_ranks:
            raise ValueError(
                f"model is configured for {self.n_ranks} ranks, runner has {n}"
            )
        iteration, victim = self._draw_crash(rng, iterations)
        per_rank: List[List[FaultPlan]] = [[] for _ in shapes]
        if iteration is not None:
            per_rank[victim].append(
                FaultPlan(
                    iteration=iteration,
                    index=(),
                    bit=0,
                    target="crash",
                    rank=victim,
                )
            )
        for _ in range(self.bitflips):
            r = int(rng.integers(0, n))
            per_rank[r].append(
                random_fault_plan(
                    rng, shapes[r], iterations, dtype=dtype, bit=self.bit
                )
            )
        return per_rank


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., FaultModel]] = {}


def register_fault_model(name: str, factory: Callable[..., FaultModel]) -> None:
    """Register a fault-model factory under ``name`` (e.g. for the CLI)."""
    _REGISTRY[str(name)] = factory


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


def _region_factory(region: str) -> Callable[..., FaultModel]:
    def build(**kwargs) -> FaultModel:
        return RegionTargeted(region=region, **kwargs)

    return build


def _crash_mtbf_factory(**kwargs) -> FaultModel:
    kwargs.setdefault("mtbf", 64.0)
    return RankCrash(**kwargs)


register_fault_model("bitflip", SingleBitFlip)
register_fault_model("burst", MultiBitBurst)
register_fault_model("mtbf", PoissonArrival)
register_fault_model("region", RegionTargeted)
register_fault_model("region-checksum", _region_factory("checksum"))
register_fault_model("region-ghost", _region_factory("ghost"))
register_fault_model("region-payload", _region_factory("payload"))
register_fault_model("rank-crash", RankCrash)
register_fault_model("rank-crash-mtbf", _crash_mtbf_factory)


# ---------------------------------------------------------------------------
# Injection hooks beyond the plain domain injector
# ---------------------------------------------------------------------------
def _corrupt_stored_checksum(protector, plan: FaultPlan) -> None:
    """Flip a bit of the protector's *primary* stored checksum copy.

    Supports both protector families by duck-typing their metadata:
    the online protector's ``_prev_cs`` dict and the primary
    ``checksum`` of the offline protector's ``checkpoint`` snapshot.
    Only the primary copy is struck —
    the self-check duplicate models independent storage, exactly the
    asymmetry the duplicated-checksum rule exploits.
    """
    prev_cs = getattr(protector, "_prev_cs", None)
    if prev_cs is not None:
        cs = prev_cs.get(plan.axis)
        if cs is None:
            axis = getattr(protector, "verify_axis", None)
            cs = prev_cs.get(axis) if axis is not None else None
        if cs is None:
            raise ValueError(
                f"no stored checksum to corrupt at iteration "
                f"{plan.iteration} (axis {plan.axis}); the online "
                f"protector only holds the verified axis between steps"
            )
        validate_plan_index(plan, cs.shape)
        flip_bit_in_array(cs, plan.index, plan.bit)
        return
    checkpoint = getattr(protector, "checkpoint", None)
    cs = None if checkpoint is None else checkpoint.checksum
    if cs is not None:
        validate_plan_index(plan, cs.shape)
        flip_bit_in_array(cs, plan.index, plan.bit)
        return
    raise ValueError(
        f"protector {type(protector).__name__} holds no stored checksum "
        f"metadata to corrupt (checksum-targeted plans need an ABFT "
        f"protector)"
    )


class ChecksumInjector:
    """Step hook striking the protector's stored checksum metadata.

    Fires like :class:`~repro.faults.injector.FaultInjector` (once per
    plan, at the plan's iteration, with the ``(grid, iteration)`` hook
    signature) but corrupts the *protector state* instead of the domain
    — the threat the duplicated-checksum self-check exists for.
    """

    def __init__(self, plans: Sequence[FaultPlan], protector) -> None:
        self.plans: List[FaultPlan] = list(plans)
        for plan in self.plans:
            if plan.target != "checksum":
                raise ValueError(
                    f"ChecksumInjector only fires 'checksum' plans; got "
                    f"{plan.target!r}"
                )
        self.protector = protector
        self._fired = [False] * len(self.plans)

    def __call__(self, grid, iteration: int) -> None:
        self.inject(grid, iteration)

    def inject(self, grid, iteration: int) -> None:
        for i, plan in enumerate(self.plans):
            if self._fired[i] or plan.iteration != iteration:
                continue
            self._fired[i] = True
            _corrupt_stored_checksum(self.protector, plan)

    @property
    def fired_count(self) -> int:
        return sum(self._fired)

    def reset(self) -> None:
        self._fired = [False] * len(self.plans)


class CompositeInjector:
    """Fan a step's injection out to several target-specific hooks.

    Exposes the union ``plans`` list, so callers can introspect the
    composite's pending plans like those of a single hook.
    """

    def __init__(self, hooks: Sequence) -> None:
        self.hooks = [h for h in hooks if h is not None]

    @property
    def plans(self) -> List[FaultPlan]:
        return [p for h in self.hooks for p in getattr(h, "plans", [])]

    @property
    def fired_count(self) -> int:
        return sum(getattr(h, "fired_count", 0) for h in self.hooks)

    def __call__(self, grid, iteration: int) -> None:
        for hook in self.hooks:
            hook(grid, iteration)

    def reset(self) -> None:
        for hook in self.hooks:
            reset = getattr(hook, "reset", None)
            if reset is not None:
                reset()


def make_injector(
    plans: Sequence[FaultPlan], protector=None
) -> Optional[Callable]:
    """Build the serial inject hook for a heterogeneous plan list.

    Domain plans fire through the classic
    :class:`~repro.faults.injector.FaultInjector`; checksum plans
    through a :class:`ChecksumInjector` bound to ``protector``.  Ghost
    and payload plans have no serial meaning (no halos, no messages)
    and raise immediately rather than silently not firing.  Returns
    ``None`` for an empty plan list — MTBF draws legitimately produce
    fault-free runs.
    """
    plans = list(plans)
    if not plans:
        return None
    domain = [p for p in plans if p.target == "domain"]
    checksum = [p for p in plans if p.target == "checksum"]
    other = [p for p in plans if p.target in ("ghost", "payload", "crash")]
    if other:
        raise ValueError(
            f"{other[0].target!r}-targeted plans require a distributed run "
            f"(use DistributedFaultInjector on a DistributedStencilRunner)"
        )
    if checksum and protector is None:
        raise ValueError(
            "checksum-targeted plans need the protector instance whose "
            "stored metadata they corrupt"
        )
    hooks: List = []
    if domain:
        hooks.append(FaultInjector(domain))
    if checksum:
        hooks.append(ChecksumInjector(checksum, protector))
    if len(hooks) == 1:
        return hooks[0]
    return CompositeInjector(hooks)


class DistributedFaultInjector:
    """Inject hook for the distributed runner covering every target region.

    Parameters
    ----------
    runner:
        The :class:`~repro.parallel.simmpi.DistributedStencilRunner`
        under attack.  Payload plans are armed on its channel at
        construction time (in-flight faults strike at *send* time, so
        they must be scheduled before the iteration's halo post).
    plans_by_rank:
        One plan list per rank, in rank order, with rank-local indices —
        e.g. the output of :meth:`FaultModel.draw_for_ranks` over
        ``[rank.shape for rank in runner.ranks]``.

    Notes
    -----
    The runner invokes the hook as ``inject(runner, iteration, rank)``
    after each rank's sweep (domain and checksum targets) and — when the
    hook exposes it — ``inject_ghosts(runner, iteration, rank)`` right
    after halo ingestion, before the sweep reads the ghost slabs.
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
        self._fired = {
            (r, i): False
            for r, rank_plans in enumerate(self.plans_by_rank)
            for i, _ in enumerate(rank_plans)
        }
        flat = self.plans
        self.has_crash_plans = any(p.target == "crash" for p in flat)
        if self.has_crash_plans:
            if n_ranks < 2:
                raise ValueError(
                    "crash plans need n_ranks >= 2: a sole rank has no "
                    "buddy checkpoint to recover from"
                )
            if any(p.target == "payload" for p in flat):
                raise ValueError(
                    "payload and crash plans cannot be combined: in-flight "
                    "faults address absolute send ordinals, which shift "
                    "when recovery replays the halo stream (combine "
                    "crashes with domain/checksum/ghost faults instead)"
                )
        self._schedule_payload_faults(runner)

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
                    "from_global only maps 'domain' and 'crash' plans; "
                    "draw other targets per rank with draw_for_ranks"
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
        return sum(self._fired.values())

    # -- payload scheduling ---------------------------------------------------
    def _schedule_payload_faults(self, runner) -> None:
        """Translate payload plans into channel send ordinals.

        ``_post_halos`` sends in a fixed order — ranks ascending, low
        neighbour before high — so the n-th send of any iteration is
        fully determined by the topology.  A payload plan on rank ``r``
        with ``side`` 0/1 corrupts the strip *sent by* ``r`` to its
        low/high neighbour during the plan's iteration.
        """
        sends: List[Tuple[int, int]] = []  # (rank, side) in send order
        for rank in runner.ranks:
            if rank.lo_neighbor is not None:
                sends.append((rank.rank, 0))
            if rank.hi_neighbor is not None:
                sends.append((rank.rank, 1))
        per_iter = len(sends)
        for r, rank_plans in enumerate(self.plans_by_rank):
            for plan in rank_plans:
                if plan.target != "payload":
                    continue
                if per_iter == 0:
                    raise ValueError(
                        "payload plans need halo traffic, but this "
                        "topology exchanges no messages (single rank, "
                        "closed boundary?)"
                    )
                side = plan.side
                if (r, side) not in sends:
                    side = 1 - side  # edge rank: fall back to the live link
                if (r, side) not in sends:
                    raise ValueError(
                        f"rank {r} has no neighbours to send to; cannot "
                        f"place a payload fault"
                    )
                position = sends.index((r, side)) + 1
                ordinal = (plan.iteration - 1) * per_iter + position
                from repro.parallel.halo import strip_size

                payload_size = 1
                if runner.halo_width >= 1:
                    payload_size = strip_size(
                        runner.ranks[r].shape, runner.axis, runner.halo_width
                    )
                offset = plan.index[0] % max(1, payload_size)
                runner.channel.schedule_fault(
                    ordinal, action=plan.action, index=(offset,), bit=plan.bit
                )

    # -- hook entry points -----------------------------------------------------
    def __call__(self, runner, iteration: int, rank) -> None:
        """Post-sweep targets: domain values and stored checksums."""
        for i, plan in enumerate(self.plans_by_rank[rank.rank]):
            if self._fired[(rank.rank, i)] or plan.iteration != iteration:
                continue
            if plan.target == "domain":
                self._fired[(rank.rank, i)] = True
                validate_plan_index(plan, rank.shape)
                flip_bit_in_array(rank.interior, plan.index, plan.bit)
            elif plan.target == "checksum":
                self._fired[(rank.rank, i)] = True
                if rank.protector is None:
                    raise ValueError(
                        f"rank {rank.rank} is unprotected; checksum plans "
                        f"need a per-rank protector"
                    )
                _corrupt_stored_checksum(rank.protector, plan)
            elif plan.target == "payload":
                # Armed on the channel at construction; mark as consumed
                # once its iteration passes.
                self._fired[(rank.rank, i)] = True
            elif plan.target == "crash":
                # Fail-stop plans are delivered by apply_crashes at the
                # start of the iteration, never by the post-sweep hook.
                continue

    def apply_crashes(self, runner, iteration: int) -> None:
        """Deliver due fail-stop plans: the victim goes silent.

        Called by the runner at the *start* of ``iteration``, before any
        halo is posted: the struck :class:`~repro.parallel.simmpi.SimRank`
        stops posting and answering messages, and the channel marks the
        rank failed so the next liveness check (or recv on the dead
        link) raises :class:`~repro.parallel.simmpi.RankFailure`.
        """
        for r, rank_plans in enumerate(self.plans_by_rank):
            for i, plan in enumerate(rank_plans):
                if (
                    plan.target != "crash"
                    or self._fired[(r, i)]
                    or plan.iteration != iteration
                ):
                    continue
                self._fired[(r, i)] = True
                victim = plan.rank if plan.rank is not None else r
                runner.ranks[victim].alive = False
                runner.channel.mark_failed(victim)

    def rewind(self, iteration: int) -> None:
        """Re-arm SDC plans inside a rolled-back window (recovery replay).

        A transient *soft error* that struck after the restored
        checkpoint is part of the trajectory being replayed, so every
        non-crash plan with ``plan.iteration > iteration`` fires again —
        that is what keeps a recovered run bitwise-identical to the
        failure-free run under concurrent SDC injection.  Crash plans
        stay fired: a rebuilt rank does not re-die.
        """
        for (r, i), fired in self._fired.items():
            if not fired:
                continue
            plan = self.plans_by_rank[r][i]
            if plan.target == "crash":
                continue
            if plan.iteration > iteration:
                self._fired[(r, i)] = False

    def inject_ghosts(self, runner, iteration: int, rank) -> None:
        """Pre-sweep target: a just-ingested ghost slab of ``rank``."""
        from repro.parallel.halo import ghost_slab

        for i, plan in enumerate(self.plans_by_rank[rank.rank]):
            if self._fired[(rank.rank, i)] or plan.iteration != iteration:
                continue
            if plan.target != "ghost":
                continue
            self._fired[(rank.rank, i)] = True
            if runner.halo_width == 0:
                raise ValueError(
                    f"axis {runner.axis} exchanges no ghosts (radius 0); "
                    f"cannot place a ghost fault"
                )
            slab = ghost_slab(
                rank.buffers.front,
                runner.radius,
                runner.axis,
                "low" if plan.side == 0 else "high",
            )
            index = tuple(
                min(i_, n - 1) for i_, n in zip(plan.index, slab.shape)
            )
            flip_bit_in_array(slab, index, plan.bit)

    def reset(self) -> None:
        for key in self._fired:
            self._fired[key] = False
