"""The benchmark's four workloads.

Every workload is a closed loop in one thread of one process: the
serial campaign executor, simulated ranks stepped one after another,
single-threaded NumPy ufuncs.  A workload has three *legs*, each a
kind of operation on state built once in set-up:

``op``
    the protected operation the workload is about;
``ref``
    the reference it is compared with (unprotected, or failure-free);
``alt``
    a second protection scheme sharing code with ``op``: the control
    that shows whether a change to one scheme costs the other.

A *round* runs one operation of every leg, each bracketed by calls of
the workload's :class:`Gauge`.  The legs of a round alternate and their
order flips every round, so drift of the machine hits every leg alike.
An untimed warm-up round precedes the timed rounds, which run until
``seconds`` have passed and at least ``min_rounds`` rounds have run.
All inputs — initial fields, the HotSpot3D power map, fault plans,
crash sites — come from ``seed``.  The output of every operation,
warm-up included, is checked; a failed check counts against ``failed``
and never aborts the run.

With a :class:`~bench.trace.Tracer`, even rounds are traced and odd
rounds are not, so one run yields the per-layer spans and the untraced
latencies they are compared with; the leg order then flips every two
rounds so that traced and untraced rounds both see both orders.  The
periodic work of the workloads (offline detection and checkpoints every
16 steps) lands on traced rounds.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig, compute_reference
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultPlan, random_fault_plan
from repro.faults.models import DistributedFaultInjector, FaultModel
from repro.metrics.accuracy import l2_error
from repro.parallel.simmpi import DistributedStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: At most this many failure messages are kept per run.
MAX_FAILURE_MESSAGES = 10

#: HotSpot3D tile of the ``hotspot3d`` workload (the paper's large tile).
HOTSPOT_TILE = (512, 512, 8)
#: Distributed shape of ``ranks4`` and ``crash``: ranks x (rows, cols).
N_RANKS = 4
RANK_BLOCK = (256, 1024)
#: Campaign tile, iterations per run and runs per operation.
CAMPAIGN_TILE = (64, 64, 8)
CAMPAIGN_ITERATIONS = 128
CAMPAIGN_RUNS = 8
#: Online ABFT corrects a bit-29 flip of a HotSpot3D temperature (about
#: 1e2 becomes about 1e21) through float64 checksums whose rounding at
#: that magnitude leaves an l2 error of 4e3-6e3: such runs are reported
#: corrected, yet are wrong.  That is a precision limit of the scheme,
#: so the campaign draws its flips from every other bit and no operation
#: of the benchmark fails; bench/README.md records the share excluded.
CAMPAIGN_BITS = tuple(b for b in range(32) if b != 29)
#: A run fails when its final l2 error against the fault-free run exceeds this.
TOLERANCE = 1.0
#: Crash runs: iterations per run and buddy-checkpoint period.  The
#: crash strikes 8 iterations after the first periodic checkpoint, so
#: every recovery replays the same depth and all runs do equal work.
CRASH_ITERATIONS = 32
CHECKPOINT_PERIOD = 16
CRASH_ITERATION = CHECKPOINT_PERIOD + 9

#: What each leg of each workload runs.
LEGS: Dict[str, Dict[str, str]] = {
    "hotspot3d": {
        "op": "OnlineABFT.step on a 512x512x8 HotSpot3D grid",
        "ref": "unprotected grid.step",
        "alt": "OfflineABFT(period=16).step",
    },
    "ranks4": {
        "op": "protected distributed step, 4 ranks x 256x1024",
        "ref": "unprotected distributed step",
        "alt": "protected step with buddy checkpoints every 16 steps",
    },
    "campaign": {
        "op": f"online-abft campaign run ({CAMPAIGN_ITERATIONS} iterations, "
        f"stacked, {CAMPAIGN_RUNS} runs per operation)",
        "ref": "no-abft fault-free campaign run (stacked)",
        "alt": "offline-abft campaign run (replay)",
    },
    "crash": {
        "op": f"{CRASH_ITERATIONS}-iteration protected run with a rank "
        "crash and a bit flip",
        "ref": "the same run without the crash (checkpoints on)",
        "alt": "the same run without the crash, checkpoints off",
    },
}


@dataclass
class Leg:
    """One kind of operation: ``run(prepare())``; only ``run`` is timed."""

    role: str
    run: Callable[[Any], Any]
    prepare: Callable[[], Any] = lambda: None


@dataclass
class Result:
    """Everything one workload run measured."""

    workload: str
    seed: int
    setup_s: List[float] = field(default_factory=list)
    #: Per-leg latency of each untraced operation, seconds per run.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-leg latency of each traced operation, seconds per run.
    traced: Dict[str, List[float]] = field(default_factory=dict)
    rounds: int = 0
    traced_rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per-layer counter totals over every round, warm-up included.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Runs per operation (campaign operations are chunks of runs).
    runs_per_op: int = 1
    #: Gauge seconds around each set-up and each untraced operation.
    setup_gauge_s: List[float] = field(default_factory=list)
    gauge_s: Dict[str, List[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.gauge = Gauge(*GAUGES[self.workload])

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bits in every element (NaNs included)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    view = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(a.view(view), b.view(view)))


class Gauge:
    """A frozen NumPy stencil loop: the benchmark's gauge of machine speed.

    The machine this benchmark runs on is shared, and its speed drifts by
    10-40% over seconds to minutes, which moves every median of a run.
    The gauge — ``sweeps`` (2*ndim+1)-point sweeps of a float32 block
    shaped like the workload's own data, written with plain NumPy ufuncs
    in this file so that no change to the library can touch it — is
    therefore timed before and after every operation, and a latency is
    reported at the gauge's nominal speed:
    ``latency * nominal / mean(gauge before, gauge after)``.
    """

    def __init__(self, shape: Sequence[int], sweeps: int, nominal_ms: float) -> None:
        ndim = len(shape)
        padded = np.random.default_rng(0).random(tuple(n + 2 for n in shape))
        padded = padded.astype(np.float32)
        self._out = np.empty(tuple(shape), dtype=np.float32)
        self._tmp = np.empty_like(self._out)
        offsets = [(0,) * ndim] + [
            tuple(step if axis == a else 0 for a in range(ndim))
            for axis in range(ndim)
            for step in (-1, 1)
        ]
        self._views = [
            padded[tuple(slice(1 + o, 1 + o + n) for o, n in zip(offset, shape))]
            for offset in offsets
        ]
        self.sweeps = int(sweeps)
        self.nominal_ms = float(nominal_ms)

    def __call__(self) -> None:
        out, tmp, (center, *neighbours) = self._out, self._tmp, self._views
        for _ in range(self.sweeps):
            np.multiply(center, 0.4, out=out)
            for view in neighbours:
                np.multiply(view, 0.1, out=tmp)
                np.add(out, tmp, out=out)


#: Per workload: the gauge's block shape, sweeps per call and nominal ms
#: (its median on a 2-core Xeon VM with a 105 MB L3, fixed once).  The
#: four gauge calls of a round take 5-20% of it.
GAUGES = {
    "hotspot3d": ((256, 256, 8), 1, 4.4),
    "ranks4": (RANK_BLOCK, 1, 0.85),
    "campaign": (CAMPAIGN_TILE, CAMPAIGN_ITERATIONS, 30.5),
    "crash": (RANK_BLOCK, CRASH_ITERATIONS, 27.0),
}


def _timed(fn: Callable, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _setup(result: Result, build: Callable[[], Any]):
    """Build the workload state ``SETUP_REPEATS`` times; keep the last.

    Gauge calls bracket every build, as they bracket every operation.
    """
    state = None
    _, before = _timed(result.gauge)
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous state before building anew
        state, elapsed = _timed(build)
        _, after = _timed(result.gauge)
        result.setup_s.append(elapsed)
        result.setup_gauge_s.append((before + after) / 2)
        before = after
    return state


def _loop(
    result: Result,
    legs: Sequence[Leg],
    check: Callable[[Dict[str, Any]], None],
    seconds: float,
    min_rounds: int,
    tracer=None,
) -> None:
    """One warm-up round, then alternating rounds until the time is up."""
    check({leg.role: leg.run(leg.prepare()) for leg in legs})
    result.samples = {leg.role: [] for leg in legs}
    result.gauge_s = {leg.role: [] for leg in legs}
    result.traced = {leg.role: [] for leg in legs}
    deadline = time.perf_counter() + seconds
    flip_every = 1 if tracer is None else 2
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        order = legs if (rounds // flip_every) % 2 == 0 else list(reversed(legs))
        traced = tracer is not None and rounds % 2 == 0
        outputs: Dict[str, Any] = {}
        with tracer if traced else nullcontext():
            _, before = _timed(result.gauge)
            for leg in order:
                arg = leg.prepare()
                with tracer.op(f"leg.{leg.role}") if traced else nullcontext():
                    outputs[leg.role], elapsed = _timed(leg.run, arg)
                _, after = _timed(result.gauge)
                if traced:
                    result.traced[leg.role].append(elapsed / result.runs_per_op)
                else:
                    result.samples[leg.role].append(elapsed / result.runs_per_op)
                    result.gauge_s[leg.role].append((before + after) / 2)
                before = after
        check(outputs)
        rounds += 1
        result.traced_rounds += int(traced)
    result.rounds = rounds


# ---------------------------------------------------------------------------
# hotspot3d
# ---------------------------------------------------------------------------
def hotspot3d(seed: int, seconds: float, min_rounds: int = 4, tracer=None) -> Result:
    """The paper's app at its large tile: unprotected vs online vs offline."""
    result = Result("hotspot3d", seed)

    def build():
        app = make_hotspot_app(HOTSPOT_TILE, seed=seed)
        ref, on, off = app.build_grid(), app.build_grid(), app.build_grid()
        online = OnlineABFT.for_grid(on)
        offline = OfflineABFT.for_grid(off, period=16)
        return ref, on, off, online, offline

    g_ref, g_on, g_off, online, offline = _setup(result, build)

    def check(out: Dict[str, Any]) -> None:
        result.attempted += len(out)
        for role, grid in (("op", g_on), ("alt", g_off)):
            if not bitwise_equal(grid.u, g_ref.u):
                result.fail(f"{role}: state differs from the unprotected grid "
                            f"at iteration {grid.iteration}")
            elif out[role].errors_detected:
                result.fail(f"{role}: {out[role].errors_detected} detections "
                            f"on a fault-free step")

    legs = [
        Leg("ref", lambda _: g_ref.step()),
        Leg("op", lambda _: online.step(g_on)),
        Leg("alt", lambda _: offline.step(g_off)),
    ]
    _loop(result, legs, check, seconds, min_rounds, tracer)
    detections = online.total_detections + offline.total_detections
    result.count("core.detections", detections)
    result.count("core.false_positives", detections)
    result.count("core.corrections", online.total_corrections)
    result.count("checkpoint.recomputed_iterations",
                 offline.total_recomputed_iterations)
    return result


# ---------------------------------------------------------------------------
# ranks4 and crash: the distributed runner
# ---------------------------------------------------------------------------
def _grid_factory(seed: int) -> Callable[[], Grid2D]:
    """Fresh 1024x1024 float32 grids with the seed's initial field."""
    rng = np.random.default_rng(seed)
    initial = (rng.random((RANK_BLOCK[0] * N_RANKS, RANK_BLOCK[1])) * 100.0).astype(
        np.float32
    )
    return lambda: Grid2D(initial, five_point_diffusion(0.2), BoundaryCondition.clamp())


def _count_runner(result: Result, runner: DistributedStencilRunner) -> None:
    """Add a distributed runner's channel, recovery and ABFT counters."""
    traffic = runner.channel.traffic()
    by_tag = traffic["bytes_by_tag"]
    result.count("parallel.iterations", runner.iteration)
    result.count("parallel.bytes.halo", by_tag.get("to_lo", 0) + by_tag.get("to_hi", 0))
    result.count("parallel.bytes.ckpt", by_tag.get("ckpt", 0) + by_tag.get("ckpt_meta", 0))
    result.count("parallel.messages", traffic["messages_sent"])
    result.count("parallel.retransmits", traffic["messages_retransmitted"])
    result.count("parallel.replayed_iterations", runner.recovery.replayed_iterations)
    result.count("core.detections", runner.total_detected())
    result.count("core.corrections", runner.total_corrected())


def ranks4(seed: int, seconds: float, min_rounds: int = 4, tracer=None) -> Result:
    """Four ranks: unprotected vs protected vs protected with checkpoints."""
    result = Result("ranks4", seed)

    def build():
        make_grid = _grid_factory(seed)
        return tuple(
            DistributedStencilRunner(
                make_grid(), n_ranks=N_RANKS, protect=protect, checkpoint_period=period
            )
            for protect, period in ((False, None), (True, None), (True, CHECKPOINT_PERIOD))
        )

    r_ref, r_op, r_alt = _setup(result, build)

    def check(out: Dict[str, Any]) -> None:
        result.attempted += len(out)
        for role, runner in (("op", r_op), ("alt", r_alt)):
            detected = sum(report.errors_detected for report in out[role])
            if not all(
                bitwise_equal(mine.interior, theirs.interior)
                for mine, theirs in zip(runner.ranks, r_ref.ranks)
            ):
                result.fail(f"{role}: rank blocks differ from the unprotected "
                            f"run at iteration {runner.iteration}")
            elif detected:
                result.fail(f"{role}: {detected} detections on a fault-free step")

    legs = [
        Leg("ref", lambda _: r_ref.step()),
        Leg("op", lambda _: r_op.step()),
        Leg("alt", lambda _: r_alt.step()),
    ]
    _loop(result, legs, check, seconds, min_rounds, tracer)
    for runner in (r_ref, r_op, r_alt):
        _count_runner(result, runner)
    result.count("core.false_positives", result.counters["core.detections"])
    return result


def crash(seed: int, seconds: float, min_rounds: int = 4, tracer=None) -> Result:
    """A rank crash plus a bit flip, recovered from buddy checkpoints."""
    result = Result("crash", seed)
    rng = np.random.default_rng(seed)

    def build():
        make_grid = _grid_factory(seed)
        clean = DistributedStencilRunner(make_grid(), n_ranks=N_RANKS, protect=False)
        clean.run(CRASH_ITERATIONS)
        return make_grid, clean.gather()

    make_grid, reference = _setup(result, build)
    plans: Dict[str, Any] = {}

    def draw_plans() -> None:
        victim = int(rng.integers(0, N_RANKS))
        plans["crash"] = FaultPlan(
            iteration=CRASH_ITERATION, index=(), bit=0, target="crash", rank=victim
        )
        plans["flip_rank"] = int(rng.integers(0, N_RANKS))
        plans["flip"] = FaultPlan(
            iteration=int(rng.integers(1, CRASH_ITERATIONS + 1)),
            index=(int(rng.integers(0, RANK_BLOCK[0])), int(rng.integers(0, RANK_BLOCK[1]))),
            bit=int(rng.integers(0, 32)),
        )

    def prepare(role: str):
        runner = DistributedStencilRunner(
            make_grid(), n_ranks=N_RANKS, protect=True,
            checkpoint_period=None if role == "alt" else CHECKPOINT_PERIOD,
        )
        per_rank: List[List[FaultPlan]] = [[] for _ in range(N_RANKS)]
        per_rank[plans["flip_rank"]].append(plans["flip"])
        if role == "op":
            per_rank[plans["crash"].rank].append(plans["crash"])
        return runner, DistributedFaultInjector(runner, per_rank)

    def run(arg):
        runner, injector = arg
        runner.run(CRASH_ITERATIONS, inject=injector)
        return runner

    def check(out: Dict[str, Any]) -> None:
        result.attempted += len(out)
        ref = out["ref"]
        final = ref.gather()
        counts = (ref.total_detected(), ref.total_corrected())
        for role in ("op", "alt"):
            runner = out[role]
            mine = (runner.total_detected(), runner.total_corrected())
            if not bitwise_equal(runner.gather(), final):
                result.fail(f"{role}: final state differs from the failure-free run")
            elif mine != counts:
                result.fail(f"{role}: detected/corrected {mine} != failure-free {counts}")
        if out["op"].recovery.ranks_rebuilt != 1:
            result.fail(f"op: {out['op'].recovery.ranks_rebuilt} ranks rebuilt, expected 1")
        precise = l2_error(reference, final) <= TOLERANCE
        for runner in out.values():
            _count_runner(result, runner)
            if precise:
                result.count("core.precise_corrections", runner.total_corrected())
        draw_plans()

    draw_plans()
    legs = [Leg(role, run, lambda role=role: prepare(role)) for role in ("ref", "op", "alt")]
    _loop(result, legs, check, seconds, min_rounds, tracer)
    return result


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignBitFlip(FaultModel):
    """The paper's single uniform bit flip, drawn over ``CAMPAIGN_BITS``."""

    name = "bitflip-campaign"

    def draw(self, rng, shape, iterations, dtype=np.float32):
        bit = CAMPAIGN_BITS[int(rng.integers(0, len(CAMPAIGN_BITS)))]
        return [random_fault_plan(rng, shape, iterations, dtype=dtype, bit=bit)]


def campaign(
    seed: int,
    seconds: float,
    min_rounds: int = 4,
    tracer=None,
    runs: int = CAMPAIGN_RUNS,
) -> Result:
    """The paper's small-tile Monte Carlo campaign: online vs offline ABFT."""
    result = Result("campaign", seed, runs_per_op=runs)
    factories = {
        "ref": make_protector_factory("no-abft"),
        "op": make_protector_factory("online-abft"),
        "alt": make_protector_factory("offline-abft"),
    }

    def build():
        app = make_hotspot_app(CAMPAIGN_TILE, seed=seed)
        reference = compute_reference(app.build_grid, CAMPAIGN_ITERATIONS)
        engine = CampaignEngine(executor="serial")
        # Build every method's persistent worker state (lazy set-up).
        for factory in factories.values():
            engine.run(
                app.build_grid, factory,
                CampaignConfig(CAMPAIGN_ITERATIONS, repetitions=1, inject=False),
                reference=reference,
            )
        return app, reference, engine

    app, reference, engine = _setup(result, build)
    chunk = [0]
    model = CampaignBitFlip()

    def config(role: str) -> CampaignConfig:
        # op and alt of a round see the same fault plans.
        return CampaignConfig(
            CAMPAIGN_ITERATIONS,
            repetitions=runs,
            inject=role != "ref",
            seed=seed * 1_000_000 + chunk[0] * runs,
            fault_model=model,
        )

    def run_campaign(role: str):
        return lambda cfg: engine.run(app.build_grid, factories[role], cfg,
                                      reference=reference)

    def check(out: Dict[str, Any]) -> None:
        chunk[0] += 1
        for role, campaign_result in out.items():
            _count_campaign(result, role, campaign_result)

    legs = [Leg(role, run_campaign(role), lambda role=role: config(role))
            for role in ("ref", "op", "alt")]
    _loop(result, legs, check, seconds, min_rounds, tracer)
    result.count("faults.engine.worker_restarts", engine.worker_restarts)
    return result


def _count_campaign(result: Result, role: str, campaign_result) -> None:
    records = campaign_result.records
    result.attempted += len(records)
    for record in records:
        error = record.arithmetic_error
        if role == "ref":
            if error != 0.0:
                result.fail(f"ref run {record.run_index}: fault-free l2 error "
                            f"{error:.3g} != 0")
            continue
        if error > TOLERANCE:
            result.fail(f"{role} run {record.run_index}: l2 error {error:.3g} > "
                        f"{TOLERANCE} (bits {[p.bit for p in record.faults]})")
        else:
            result.count("core.precise_corrections", record.errors_corrected)
        result.count("core.detections", record.errors_detected)
        result.count("core.corrections", record.errors_corrected)
        result.count("checkpoint.recomputed_iterations", record.recomputed_iterations)
    for batch in campaign_result.batch_strategies:
        result.count("faults.batches", 1)
        result.count("faults.batches.stacked", batch.strategy == "stacked")


WORKLOADS: Dict[str, Callable[..., Result]] = {
    "hotspot3d": hotspot3d,
    "ranks4": ranks4,
    "campaign": campaign,
    "crash": crash,
}
