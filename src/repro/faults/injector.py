"""Fault plans and the fault-injection step hook.

A :class:`FaultPlan` pins down *when* (iteration), *where* (domain index)
and *what* (bit position) a silent data corruption strikes. A
:class:`FaultInjector` holds one or more plans and exposes the
``inject(grid, iteration)`` hook consumed by every protector: the hook is
called right after the sweep produced the new domain and before any
checksum is computed from it, matching the injection point of the
paper's campaign ("after the stencil point targeted for data corruption
has been updated and before it is stored into the domain",
Section 5.1).  Every plan flip, serial or not, goes through
:func:`flip_plan`: the plan's index is checked against the struck array,
then the bit is flipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.bitflip import bit_width, flip_bit_in_array
from repro.stencil.grid import GridBase

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "flip_plan",
    "random_fault_plan",
    "validate_plan_index",
]


def validate_plan_index(plan: "FaultPlan", shape: Sequence[int]) -> None:
    """Check a plan's index against the targeted array's shape.

    Raises a :class:`ValueError` naming the offending plan instead of
    letting an out-of-range index surface as a raw numpy ``IndexError``
    (or, worse, silently wrap around for negative components) deep in
    the injection hook.
    """
    shape = tuple(int(n) for n in shape)
    if len(plan.index) != len(shape):
        raise ValueError(
            f"fault index {plan.index} does not match domain "
            f"dimensionality {len(shape)}"
        )
    for d, (i, n) in enumerate(zip(plan.index, shape)):
        if not 0 <= i < n:
            raise ValueError(
                f"fault plan (iteration={plan.iteration}, target="
                f"{plan.target!r}) index {plan.index} is out of range "
                f"along axis {d}: {i} not in [0, {n}) for shape {shape}"
            )


@dataclass
class FaultPlan:
    """A single planned silent data corruption.

    Attributes
    ----------
    iteration:
        1-based sweep number during which the corruption strikes (the
        value ``grid.iteration`` has right after that sweep).
    index:
        Domain index of the corrupted point (or, for non-``domain``
        targets, an index into the targeted structure — see ``target``).
    bit:
        Bit position flipped in the point's binary representation.
    target:
        What structure the corruption strikes. ``"domain"`` (the
        default, the paper's Section 5.1 model) flips a bit in a domain
        value. ``"checksum"`` flips a bit in the protector's *stored*
        checksum vector for axis ``axis`` (``index`` indexes that
        vector). ``"ghost"`` flips a bit in a just-ingested ghost slab
        of a distributed rank (``axis``/``side`` select the slab,
        ``index`` the point within it). ``"payload"`` corrupts an
        in-flight :class:`~repro.parallel.simmpi.SimChannel` message
        (``index[0]``, modulo the strip's element count, is the flat
        element offset within the payload).
        ``"crash"`` is a fail-stop failure, not an SDC: the ``rank``
        stops posting and answering messages at the start of
        ``iteration`` (``index``/``bit`` are unused).
    axis:
        Checksum/halo axis for the ``checksum`` and ``ghost`` targets.
    side:
        Halo side (``0`` = low, ``1`` = high) for the ``ghost`` and
        ``payload`` targets.
    action:
        In-flight action for the ``payload`` target: ``"corrupt"``
        (default, a bit flip the channel CRC detects) or ``"drop"``.
    rank:
        Victim rank for the ``crash`` target. May be ``None`` in the
        per-rank plan-list form (``plans_by_rank``), where the list
        position already names the victim.
    """

    TARGETS = ("domain", "checksum", "ghost", "payload", "crash")

    iteration: int
    index: Tuple[int, ...]
    bit: int
    target: str = "domain"
    axis: int = 0
    side: int = 0
    action: str = "corrupt"
    rank: Optional[int] = None

    def __post_init__(self) -> None:
        self.iteration = int(self.iteration)
        self.index = tuple(int(i) for i in self.index)
        self.bit = int(self.bit)
        self.target = str(self.target)
        self.axis = int(self.axis)
        self.side = int(self.side)
        self.action = str(self.action)
        if self.rank is not None:
            self.rank = int(self.rank)
            if self.rank < 0:
                raise ValueError("crash victim rank must be non-negative")
        if self.iteration < 1:
            raise ValueError("fault iterations are 1-based; got iteration < 1")
        if self.bit < 0:
            raise ValueError("bit position must be non-negative")
        if self.target not in self.TARGETS:
            raise ValueError(
                f"unknown fault target {self.target!r}; expected one of "
                f"{self.TARGETS}"
            )
        if self.side not in (0, 1):
            raise ValueError("halo side must be 0 (low) or 1 (high)")
        if self.action not in ("corrupt", "drop"):
            raise ValueError(
                f"unknown fault action {self.action!r}; expected 'corrupt' "
                f"or 'drop'"
            )


def random_fault_plan(
    rng: np.random.Generator,
    shape: Sequence[int],
    iterations: int,
    dtype=np.float32,
    bit: Optional[int] = None,
) -> FaultPlan:
    """Draw a uniformly random fault plan (the paper's fault model).

    Iteration, domain point and (unless ``bit`` is pinned) bit position
    are drawn independently and uniformly, as in Section 5.1.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration to inject into")
    iteration = int(rng.integers(1, iterations + 1))
    index = tuple(int(rng.integers(0, n)) for n in shape)
    if bit is None:
        bit = int(rng.integers(0, bit_width(dtype)))
    return FaultPlan(iteration=iteration, index=index, bit=int(bit))


def flip_plan(values: np.ndarray, plan: FaultPlan) -> Tuple[float, float]:
    """Flip ``plan``'s bit in ``values`` after checking its index.

    The one rule every plan flip follows — serial, distributed or
    stacked, domain or stored checksum: :func:`validate_plan_index`
    against the struck array, then
    :func:`~repro.faults.bitflip.flip_bit_in_array`.  Returns the value
    before and after the flip.
    """
    validate_plan_index(plan, values.shape)
    return flip_bit_in_array(values, plan.index, plan.bit)


def _corrupt_stored_checksum(protector, plan: FaultPlan) -> Tuple[float, float]:
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
            cs = prev_cs.get(0)
        if cs is None:
            raise ValueError(
                f"no stored checksum to corrupt at iteration "
                f"{plan.iteration} (axis {plan.axis}); the online "
                f"protector holds only the column checksum (axis 0) "
                f"between steps"
            )
        return flip_plan(cs, plan)
    checkpoint = getattr(protector, "checkpoint", None)
    cs = None if checkpoint is None else checkpoint.checksum
    if cs is not None:
        return flip_plan(cs, plan)
    raise ValueError(
        f"protector {type(protector).__name__} holds no stored checksum "
        f"metadata to corrupt (checksum-targeted plans need an ABFT "
        f"protector)"
    )


class FaultInjector:
    """Serial step hook that fires planned faults at their target iteration.

    Parameters
    ----------
    plans:
        The faults to inject: ``domain`` plans flip a bit of the grid's
        domain, ``checksum`` plans a bit of ``protector``'s stored
        checksum vector (the threat the duplicated-checksum self-check
        exists for).  Each plan fires at most once — rollback recovery
        re-executes iterations, and a transient soft error does not
        re-occur on re-execution.
    protector:
        The protector whose stored checksums the ``checksum`` plans
        strike; required when there are any.

    Ghost, payload and crash plans strike halos, messages and ranks,
    which a serial run does not have: they are refused at construction
    (:class:`~repro.faults.models.DistributedFaultInjector` fires them
    on a distributed run).

    Notes
    -----
    Instances are callable with the ``(grid, iteration)`` signature every
    protector expects for its ``inject=`` argument.
    """

    def __init__(
        self, plans: Sequence[FaultPlan] | FaultPlan, protector=None
    ) -> None:
        if isinstance(plans, FaultPlan):
            plans = [plans]
        self.plans: List[FaultPlan] = list(plans)
        for plan in self.plans:
            if plan.target in ("ghost", "payload", "crash"):
                raise ValueError(
                    f"{plan.target!r}-targeted plans require a distributed "
                    f"run (use DistributedFaultInjector on a "
                    f"DistributedStencilRunner)"
                )
            if plan.target == "checksum" and protector is None:
                raise ValueError(
                    "checksum-targeted plans need the protector whose "
                    "stored checksums they corrupt: pass it as "
                    "FaultInjector(plans, protector), or use "
                    "DistributedFaultInjector on a distributed run"
                )
        self.protector = protector
        self._fired = [False] * len(self.plans)

    # -- hook --------------------------------------------------------------------
    def __call__(self, grid: GridBase, iteration: int) -> None:
        self.inject(grid, iteration)

    def inject(self, grid: GridBase, iteration: int) -> None:
        """Fire every not-yet-fired plan scheduled for ``iteration``."""
        for i, plan in enumerate(self.plans):
            if self._fired[i] or plan.iteration != iteration:
                continue
            if plan.target == "checksum":
                _corrupt_stored_checksum(self.protector, plan)
            else:
                flip_plan(grid.u, plan)
            self._fired[i] = True

    # -- bookkeeping ----------------------------------------------------------
    @property
    def fired_count(self) -> int:
        return sum(self._fired)
