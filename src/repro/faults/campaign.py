"""Fault-injection campaigns.

A campaign repeats the same protected stencil run many times, each time
with an independently drawn random fault (or none), and records the
execution time, the final arithmetic error against an error-free
reference, and the detection/correction bookkeeping. This is the
harness behind the paper's evaluation (Section 5): 1,000 repetitions for
the 64x64x8 tiles and 100 repetitions for the 512x512x8 tiles.

Every campaign run takes one path.  :func:`draw_fault_plans` draws each
run's plans from ``default_rng(seed + run_index)``; :func:`run_one`
resets the protector, runs from the grid's initial state, fires the
plans through one :class:`~repro.faults.injector.FaultInjector` (or, for
fail-stop plans, on the distributed runner, :func:`run_with_crashes`)
and returns the run's :class:`RunRecord`.  :func:`run_campaign` is the
*reference* serial loop: it hands :func:`run_one` a fresh grid and a
fresh protector per run.  The throughput harness,
:class:`repro.faults.engine.CampaignEngine`, hands it a worker's
persistent grid restored in place, or steps a whole batch as one
stacked array; its records are bitwise-identical to this loop's, which
the benchmark suite gates.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection, Protector
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.models import FaultModel, SingleBitFlip
from repro.metrics.accuracy import l2_error
from repro.metrics.statistics import SummaryStats, summarize
from repro.stencil.grid import GridBase

__all__ = [
    "BatchStrategy",
    "CampaignConfig",
    "RunRecord",
    "CampaignResult",
    "check_plans",
    "resolve_run_counters",
    "run_with_crashes",
    "draw_fault_plans",
    "run_one",
    "run_campaign",
]

GridFactory = Callable[[], GridBase]
ProtectorFactory = Callable[[GridBase], Protector]


@dataclass
class CampaignConfig:
    """Parameters of a fault-injection campaign.

    Attributes
    ----------
    iterations:
        Stencil iterations per run (128 / 256 in the paper).
    repetitions:
        Number of independent runs.
    inject:
        Whether each run receives the fault model's faults
        (``False`` reproduces the error-free scenario).
    seed:
        Base seed; run ``i`` uses ``seed + i`` so campaigns are fully
        reproducible and runs are independent.
    fault_model:
        The :class:`~repro.faults.models.FaultModel` drawing each run's
        plans: by default the paper's single uniform bit flip,
        :class:`~repro.faults.models.SingleBitFlip`, whose ``bit`` pins
        the flipped bit (the Figure 10 sweep) and ``faults_per_run``
        draws several flips per run.  Models that draw fail-stop plans
        (:class:`~repro.faults.models.RankCrash`) run on the distributed
        runner's buddy-checkpoint recovery path
        (:func:`run_with_crashes`).
    """

    iterations: int
    repetitions: int
    inject: bool = True
    seed: int = 0
    fault_model: FaultModel = SingleBitFlip()

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not isinstance(self.fault_model, FaultModel):
            raise TypeError(
                f"fault_model must be a FaultModel, got "
                f"{type(self.fault_model).__name__}"
            )


@dataclass
class RunRecord:
    """Outcome of a single campaign run."""

    run_index: int
    elapsed_seconds: float
    arithmetic_error: float
    errors_detected: int
    errors_corrected: int
    errors_uncorrected: int
    rollbacks: int
    recomputed_iterations: int
    #: The run's fault plans, in draw order (empty for a fault-free run).
    faults: List[FaultPlan] = field(default_factory=list)
    #: Ranks rebuilt from a buddy checkpoint (fail-stop runs; 0 for
    #: SDC-only runs, which never lose a rank).
    ranks_rebuilt: int = 0
    #: Bytes shipped to buddies for checkpointing during the run.
    checkpoint_bytes: int = 0

    @property
    def fault(self) -> Optional[FaultPlan]:
        """The run's first fault plan (``None`` for a fault-free run)."""
        return self.faults[0] if self.faults else None

    @property
    def injected(self) -> bool:
        return bool(self.faults)

    @property
    def detected(self) -> bool:
        return self.errors_detected > 0


@dataclass(frozen=True)
class BatchStrategy:
    """Which run strategy one engine batch actually used.

    The engine picks ``stacked`` or ``replay`` per batch (see
    :mod:`repro.faults.engine`); campaigns report that choice — with the
    recorded fallback reason whenever replay was chosen — so throughput
    numbers are never read against the wrong execution path.  The legacy
    serial :func:`run_campaign` loop reports nothing here (records are
    identical either way; strategy is a property of the engine).
    """

    #: First run index of the batch.
    start: int
    #: Number of runs in the batch.
    width: int
    #: ``"stacked"`` | ``"replay"``.
    strategy: str
    #: Why replay was chosen when it was (``None`` under stacked).
    reason: Optional[str] = None


@dataclass
class _ResultColumns:
    """Columnar views over a campaign's records, built in one pass.

    The summary methods of :class:`CampaignResult` are called repeatedly
    by the figures (once per statistic, per method, per scenario); with
    paper-scale campaigns of 1,000 records, rebuilding a Python list for
    every call dominated the summary cost.  The arrays are built once per
    record count and reused until more records are appended.
    """

    elapsed: np.ndarray
    error: np.ndarray
    detected_counts: np.ndarray
    corrected: np.ndarray
    uncorrected: np.ndarray
    rollbacks: np.ndarray
    recomputed: np.ndarray
    injected: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[RunRecord]) -> "_ResultColumns":
        n = len(records)
        elapsed = np.empty(n, dtype=np.float64)
        error = np.empty(n, dtype=np.float64)
        detected = np.empty(n, dtype=np.int64)
        corrected = np.empty(n, dtype=np.int64)
        uncorrected = np.empty(n, dtype=np.int64)
        rollbacks = np.empty(n, dtype=np.int64)
        recomputed = np.empty(n, dtype=np.int64)
        injected = np.empty(n, dtype=bool)
        for i, r in enumerate(records):
            elapsed[i] = r.elapsed_seconds
            error[i] = r.arithmetic_error
            detected[i] = r.errors_detected
            corrected[i] = r.errors_corrected
            uncorrected[i] = r.errors_uncorrected
            rollbacks[i] = r.rollbacks
            recomputed[i] = r.recomputed_iterations
            injected[i] = r.injected
        return cls(
            elapsed=elapsed,
            error=error,
            detected_counts=detected,
            corrected=corrected,
            uncorrected=uncorrected,
            rollbacks=rollbacks,
            recomputed=recomputed,
            injected=injected,
        )


@dataclass
class CampaignResult:
    """All run records of a campaign plus convenience summaries.

    The summaries are computed from columnar NumPy arrays built once per
    record count (:class:`_ResultColumns`); the ``records`` list remains
    the authoritative store and the arrays refresh automatically when
    records are appended.
    """

    config: CampaignConfig
    protector_name: str
    records: List[RunRecord] = field(default_factory=list)
    #: Per-batch strategy reports (engine campaigns only; the legacy
    #: serial loop leaves this empty).
    batch_strategies: List[BatchStrategy] = field(default_factory=list)

    def strategy_counts(self) -> dict:
        """Runs executed per strategy, e.g. ``{"stacked": 96, "replay": 4}``."""
        counts: dict = {}
        for batch in self.batch_strategies:
            counts[batch.strategy] = counts.get(batch.strategy, 0) + batch.width
        return counts

    def fallback_reasons(self) -> List[str]:
        """Distinct recorded reasons replay batches fell back, in order."""
        seen: List[str] = []
        for batch in self.batch_strategies:
            if batch.reason is not None and batch.reason not in seen:
                seen.append(batch.reason)
        return seen

    def columns(self) -> _ResultColumns:
        """Columnar arrays over the records (cached per record count)."""
        cached = getattr(self, "_columns", None)
        if cached is None or len(cached.elapsed) != len(self.records):
            cached = _ResultColumns.from_records(self.records)
            # Bypass dataclass field machinery: the cache is derived
            # state, not part of equality/repr.
            object.__setattr__(self, "_columns", cached)
        return cached

    # -- summaries -------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Per-run execution times in seconds (float64 array)."""
        return self.columns().elapsed

    def errors(self) -> np.ndarray:
        """Per-run arithmetic errors vs the reference (float64 array)."""
        return self.columns().error

    def time_stats(self) -> SummaryStats:
        return summarize(self.times())

    def error_stats(self) -> SummaryStats:
        return summarize(self.errors())

    def detection_rate(self) -> float:
        """Fraction of injected runs in which the fault was detected."""
        cols = self.columns()
        n_injected = int(cols.injected.sum())
        if n_injected == 0:
            return float("nan")
        hits = int(((cols.detected_counts > 0) & cols.injected).sum())
        return hits / n_injected

    def false_positive_rate(self) -> float:
        """Fraction of non-injected runs that still flagged an error."""
        cols = self.columns()
        clean = ~cols.injected
        n_clean = int(clean.sum())
        if n_clean == 0:
            return float("nan")
        flags = int(((cols.detected_counts > 0) & clean).sum())
        return flags / n_clean

    def total_rollbacks(self) -> int:
        return int(self.columns().rollbacks.sum())

    def __len__(self) -> int:
        return len(self.records)


def resolve_run_counters(protector: Protector, run_report) -> tuple:
    """The five per-run counters: protector statistics, run-report fallback.

    Protectors that expose cumulative counters (the ABFT protectors) are
    the authoritative source; a protector that does not expose a counter
    at all (e.g. :class:`~repro.core.protector.NoProtection`) falls back
    to the corresponding run-report total.  The distinction is made with
    a missing-attribute sentinel, **not** truthiness: a protector that
    legitimately counted zero keeps its zero instead of being silently
    overridden by the run report.
    """

    def pick(attr: str, fallback: int) -> int:
        value = getattr(protector, attr, None)
        return int(fallback) if value is None else int(value)

    return (
        pick("total_detections", run_report.total_detected),
        pick("total_corrections", run_report.total_corrected),
        pick("total_uncorrected", run_report.total_uncorrected),
        pick("total_rollbacks", run_report.total_rollbacks),
        pick("total_recomputed_iterations", run_report.total_recomputed_iterations),
    )


def check_plans(plans: Sequence[FaultPlan], protector: Protector) -> None:
    """Raise ``ValueError`` naming why :func:`run_one` cannot fire ``plans``.

    Campaigns check every run's plans before the first run.  Ghost and
    payload plans need a distributed run; a crash run
    (:func:`run_with_crashes`) needs a protector with a per-rank
    counterpart and maps only domain plans onto its ranks; checksum
    plans strike an ABFT protector's stored checksums.
    """
    name = getattr(protector, "name", type(protector).__name__)
    targets = {plan.target for plan in plans}
    halo_targets = sorted(targets & {"ghost", "payload"})
    if halo_targets:
        raise ValueError(
            f"{halo_targets[0]!r}-targeted plans require a distributed run "
            f"(use DistributedFaultInjector on a DistributedStencilRunner)"
        )
    if "crash" in targets:
        if not isinstance(protector, (OnlineABFT, NoProtection)):
            raise ValueError(
                f"fail-stop campaign runs support the 'online-abft' and "
                f"'no-abft' protectors; got {name!r}"
            )
        if targets - {"crash", "domain"}:
            raise ValueError(
                f"a fail-stop campaign run maps only domain plans onto its "
                f"ranks; got {sorted(targets - {'crash', 'domain'})}"
            )
    elif "checksum" in targets and not isinstance(
        protector, (OnlineABFT, OfflineABFT)
    ):
        raise ValueError(
            f"checksum-targeted plans strike an ABFT protector's stored "
            f"checksums; {name!r} holds none"
        )


@contextlib.contextmanager
def _collector_paused():
    """Pause the garbage collector, as ``timeit`` does, then restore its
    previous state.

    :func:`run_one` and :func:`run_with_crashes` time a run inside it,
    so a run's ``elapsed_seconds`` never includes a collection that
    allocations made before the run triggered.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_with_crashes(
    grid: GridBase,
    protector: Protector,
    plans: Sequence[FaultPlan],
    iterations: int,
    fault_model: FaultModel,
):
    """Execute one campaign run that includes fail-stop (crash) plans.

    Crash plans have no serial meaning — a single process cannot lose a
    rank — so the run is executed on the simulated distributed runner
    with buddy checkpointing auto-enabled, scattering the grid over
    ``fault_model.n_ranks`` ranks (default 2).  Domain plans in the same
    draw are mapped onto the owning ranks, so combined crash + SDC draws
    exercise detection, correction *and* recovery in one run.

    The serial ``protector`` is not stepped; it only selects the
    distributed protection mode: :class:`~repro.core.online.OnlineABFT`
    runs protected ranks, each built with the serial protector's
    settings (its value of every option the runner passes through),
    :class:`~repro.core.protector.NoProtection` runs bare ranks.
    :func:`check_plans` refuses every other protector (e.g. offline
    ABFT), which has no per-rank distributed counterpart.

    Returns ``(elapsed_seconds, runner)``; :func:`run_one` reads the
    final domain (``runner.gather()``) and the counters from the runner.
    """
    from repro.faults.models import DistributedFaultInjector
    from repro.parallel.simmpi import _ABFT_KWARGS, DistributedStencilRunner

    check_plans(plans, protector)
    protect = isinstance(protector, OnlineABFT)
    settings = {n: getattr(protector, n) for n in _ABFT_KWARGS} if protect else {}
    n_ranks = int(getattr(fault_model, "n_ranks", 2))
    runner = DistributedStencilRunner(
        grid, n_ranks=n_ranks, protect=protect, **settings
    )
    injector = DistributedFaultInjector.from_global(runner, plans)
    with _collector_paused():
        start = time.perf_counter()
        runner.run(iterations, inject=injector)
        elapsed = time.perf_counter() - start
    return elapsed, runner



def compute_reference(grid_factory: GridFactory, iterations: int) -> np.ndarray:
    """Error-free reference solution (the paper's single-threaded run)."""
    grid = grid_factory()
    grid.run(iterations)
    return grid.u.copy()


def draw_fault_plans(
    config: CampaignConfig, shape: Sequence[int], dtype
) -> List[List[FaultPlan]]:
    """Every run's fault plans: ``config.fault_model`` drawn per run.

    Run ``i`` draws from its own ``default_rng(seed + i)``, so a run's
    plans depend on neither the other runs nor the order they execute
    in.  Returns one (possibly empty) plan list per run; an error-free
    campaign (``inject=False``) draws nothing.
    """
    if not config.inject:
        return [[] for _ in range(config.repetitions)]
    return [
        config.fault_model.draw(
            np.random.default_rng(config.seed + run_index),
            shape,
            config.iterations,
            dtype=dtype,
        )
        for run_index in range(config.repetitions)
    ]


def run_one(
    grid: GridBase,
    protector: Protector,
    plans: Sequence[FaultPlan],
    config: CampaignConfig,
    run_index: int,
    error: Callable[[np.ndarray], float],
    inject: Optional[Callable] = None,
) -> RunRecord:
    """One campaign run from ``grid``'s current (initial) state.

    Resets ``protector``, runs ``config.iterations`` protected steps
    with ``plans`` fired by one
    :class:`~repro.faults.injector.FaultInjector` (an ``inject`` hook
    replaces it: the engine's per-run hooks) and returns the run's
    record, its arithmetic error ``error(final domain)``.  A plan list
    holding a fail-stop (``crash``) plan runs on the distributed runner
    instead (:func:`run_with_crashes`); its rollbacks and recomputed
    iterations are the runner's checkpoint restores and replayed
    iterations, the distributed analogue of the offline-ABFT counters.

    The callers differ only in where ``grid`` comes from:
    :func:`run_campaign` builds a fresh one per run, the engine's replay
    restores its persistent one in place.
    """
    plans = list(plans)
    check_plans(plans, protector)
    protector.reset()
    recovery = {}
    if any(p.target == "crash" for p in plans):
        elapsed, runner = run_with_crashes(
            grid, protector, plans, config.iterations, config.fault_model
        )
        final = runner.gather()
        stats = runner.recovery
        counters = (
            runner.total_detected(),
            runner.total_corrected(),
            sum(
                r.protector.total_uncorrected
                for r in runner.ranks
                if r.protector is not None
            ),
            stats.rollbacks,
            stats.replayed_iterations,
        )
        recovery = {
            "ranks_rebuilt": int(stats.ranks_rebuilt),
            "checkpoint_bytes": int(stats.checkpoint_bytes),
        }
    else:
        if inject is None and plans:
            inject = FaultInjector(plans, protector)
        with _collector_paused():
            start = time.perf_counter()
            report = protector.run(grid, config.iterations, inject=inject)
            elapsed = time.perf_counter() - start
        final = grid.u
        counters = resolve_run_counters(protector, report)
    return RunRecord(
        run_index,
        elapsed,
        error(final),
        *(int(c) for c in counters),
        faults=plans,
        **recovery,
    )


def run_campaign(
    grid_factory: GridFactory,
    protector_factory: ProtectorFactory,
    config: CampaignConfig,
    reference: Optional[np.ndarray] = None,
) -> CampaignResult:
    """Execute a fault-injection campaign.

    Parameters
    ----------
    grid_factory:
        Zero-argument callable returning a *fresh* grid with identical
        initial conditions for every run.
    protector_factory:
        Callable building a fresh protector for a given grid (e.g.
        ``OnlineABFT.for_grid``).
    config:
        Campaign parameters.
    reference:
        Optional pre-computed error-free final domain; computed once via
        :func:`compute_reference` when omitted.

    Returns
    -------
    CampaignResult
    """
    if reference is None:
        reference = compute_reference(grid_factory, config.iterations)

    sample_grid = grid_factory()
    sample_protector = protector_factory(sample_grid)
    plans = draw_fault_plans(config, sample_grid.shape, sample_grid.dtype)
    for run_plans in plans:
        check_plans(run_plans, sample_protector)
    result = CampaignResult(
        config=config,
        protector_name=getattr(sample_protector, "name", "protector"),
    )

    # Warm-up run (not recorded): pays one-off costs (allocator growth,
    # lazy imports, CPU frequency ramp) outside the timed repetitions so
    # that the mean execution time is not skewed by the first run.
    warmup_protector = protector_factory(sample_grid)
    warmup_protector.run(sample_grid, min(3, config.iterations))

    error = functools.partial(l2_error, reference)
    for run_index, run_plans in enumerate(plans):
        grid = grid_factory()
        result.records.append(
            run_one(
                grid, protector_factory(grid), run_plans, config, run_index,
                error,
            )
        )
    return result
