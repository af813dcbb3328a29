"""Tests for the high-throughput campaign engine.

The engine's contract is strict: records bitwise-identical to the
legacy serial loop (:func:`run_campaign`) for every field except the
elapsed-time measurement, for every method, scenario, executor kind,
worker count and batch size — plus zero full-domain allocations per run
once a worker's persistent state is warm.
"""

import re
import tracemalloc
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest

from conftest import COMPUTE_PATHS

from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import (
    CampaignConfig,
    draw_fault_plans,
    resolve_run_counters,
    run_campaign,
)
from repro.faults.engine import CampaignEngine, stacked_support_reason
from repro.faults.injector import FaultPlan
from repro.faults.models import FaultModel, SingleBitFlip
from repro.metrics.accuracy import l2_error
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import five_point_diffusion, seven_point_diffusion_3d

TILE = (16, 16, 4)
ITERATIONS = 10

_U0_2D = (np.random.default_rng(3).random((20, 14)) * 100).astype(np.float32)

_BOUNDARIES_2D = {
    "clamp": BoundaryCondition.clamp(),
    "periodic": BoundaryCondition.periodic(),
    "zero": BoundaryCondition.zero(),
    "clamp+constant": BoundarySpec(
        (BoundaryCondition.clamp(), BoundaryCondition.constant(5.0))
    ),
}

_U0_3D = (np.random.default_rng(8).random((12, 10, 4)) * 100).astype(np.float32)

#: Clamp, periodic and zero axes close the stacked interpolation's
#: borders; a constant fill on y sends every border back to the domain.
_BOUNDARIES_3D = {
    "clamp": BoundaryCondition.clamp(),
    "periodic": BoundaryCondition.periodic(),
    "zero": BoundaryCondition.zero(),
    "clamp+constant": BoundarySpec((
        BoundaryCondition.clamp(), BoundaryCondition.constant(40.0),
        BoundaryCondition.clamp(),
    )),
}


def _grid2d_factory(boundary_key: str):
    def factory():
        return Grid2D(
            _U0_2D, five_point_diffusion(0.2), _BOUNDARIES_2D[boundary_key]
        )

    return factory


@pytest.fixture(scope="module")
def app():
    return make_hotspot_app(TILE)


@pytest.fixture(scope="module")
def reference(app):
    return app.reference_solution(ITERATIONS)


def record_key(record):
    """All deterministic record fields (elapsed time excluded)."""
    return (
        record.run_index,
        record.arithmetic_error,
        record.errors_detected,
        record.errors_corrected,
        record.errors_uncorrected,
        record.rollbacks,
        record.recomputed_iterations,
        tuple((p.iteration, p.index, p.bit) for p in record.faults),
    )


def assert_equivalent(result_a, result_b):
    assert [record_key(r) for r in result_a.records] == [
        record_key(r) for r in result_b.records
    ]


class TestRecordEquivalence:
    @pytest.mark.parametrize("method", ["no-abft", "online-abft", "offline-abft"])
    @pytest.mark.parametrize("inject", [False, True])
    def test_engine_matches_legacy_loop(self, app, reference, method, inject):
        factory = make_protector_factory(method, period=4)
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=inject, seed=21
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(app.build_grid, factory, config, reference=reference)
        assert got.protector_name == legacy.protector_name
        assert_equivalent(legacy, got)

    def test_identical_across_executors_and_workers(self, app, reference):
        # Offline ABFT's period 4 leaves a short last window of 2.
        for method in ("online-abft", "offline-abft"):
            factory = make_protector_factory(method, period=4)
            config = CampaignConfig(
                iterations=ITERATIONS, repetitions=7, inject=True, seed=5
            )
            with CampaignEngine(executor="serial") as engine:
                baseline = engine.run(
                    app.build_grid, factory, config, reference=reference
                )
            for kind, workers in (("threads", 2), ("process", 2)):
                with CampaignEngine(executor=kind, workers=workers) as engine:
                    got = engine.run(
                        app.build_grid, factory, config, reference=reference
                    )
                assert_equivalent(baseline, got)
                assert got.strategy_counts() == {"stacked": 7}

    def test_identical_across_batch_sizes(self, app, reference):
        for method in ("online-abft", "offline-abft"):
            factory = make_protector_factory(method, period=4)
            config = CampaignConfig(
                iterations=ITERATIONS, repetitions=6, inject=True, seed=9
            )
            results = []
            for batch in (1, 2, 6):
                with CampaignEngine(executor="serial", batch_size=batch) as engine:
                    results.append(
                        engine.run(
                            app.build_grid, factory, config, reference=reference
                        )
                    )
            assert_equivalent(results[0], results[1])
            assert_equivalent(results[0], results[2])

    def test_forced_replay_matches_legacy_and_stacked(self, app, reference):
        # strategy="replay" (Figure 8's timing-fidelity mode) must give
        # the same records as both the legacy loop and the stacked path.
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=True, seed=17
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            stacked = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            replayed = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="replay",
            )
        assert_equivalent(legacy, stacked)
        assert_equivalent(legacy, replayed)
        with pytest.raises(ValueError, match="strategy"):
            with CampaignEngine(executor="serial") as engine:
                engine.run(
                    app.build_grid, factory, config, reference=reference,
                    strategy="vectorised",
                )

    def test_reproducible_across_engine_instances(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=4, inject=True, seed=2
        )
        with CampaignEngine(executor="serial") as engine:
            first = engine.run(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            second = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(first, second)

    @pytest.mark.parametrize("boundary_key", sorted(_BOUNDARIES_2D))
    @pytest.mark.parametrize(
        "checksum_dtype", [np.float64, None], ids=["float64-sums", "float32-sums"]
    )
    def test_2d_grids_every_boundary_kind(self, boundary_key, checksum_dtype):
        factory = _grid2d_factory(boundary_key)

        def protector_factory(grid):
            return OnlineABFT.for_grid(
                grid, epsilon=1e-5, checksum_dtype=checksum_dtype
            )

        config = CampaignConfig(iterations=9, repetitions=6, inject=True, seed=4)
        legacy = run_campaign(factory, protector_factory, config)
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(factory, protector_factory, config)
        assert_equivalent(legacy, got)

    @pytest.mark.parametrize(
        "config_kwargs", [{"faults_per_run": 3}, {"bit": 27}, {"bit": 1}]
    )
    def test_multi_fault_and_pinned_bit_campaigns(
        self, app, reference, config_kwargs
    ):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=True, seed=8,
            fault_model=SingleBitFlip(**config_kwargs),
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(legacy, got)

    def test_state_reuse_across_calls_stays_identical(self, app, reference):
        # The chunked-benchmark pattern: the same engine runs the same
        # campaign repeatedly; the worker resets its persistent grid and
        # protector in place, and a reused state must not leak anything
        # from the previous chunk into the next.
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=True, seed=13
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            engine.run(app.build_grid, factory, config, reference=reference)
            again = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(legacy, again)


class TestFaultPlans:
    def test_plans_match_legacy_scheme(self, app):
        config = CampaignConfig(iterations=8, repetitions=3, inject=True, seed=40)
        plans = draw_fault_plans(config, TILE, np.float32)
        legacy = run_campaign(
            app.build_grid,
            make_protector_factory("no-abft"),
            config,
            reference=np.zeros(TILE, np.float32),
        )
        got = [
            [(p.iteration, p.index, p.bit) for p in run_plans]
            for run_plans in plans
        ]
        want = [
            [(p.iteration, p.index, p.bit) for p in r.faults]
            for r in legacy.records
        ]
        assert got == want

    def test_error_free_campaign_draws_nothing(self):
        config = CampaignConfig(iterations=8, repetitions=3, inject=False)
        assert draw_fault_plans(config, TILE, np.float32) == [[], [], []]


class TestStrategySelection:
    def test_online_and_noprotection_are_stackable(self, app):
        grid = app.build_grid()
        assert stacked_support_reason(grid, OnlineABFT.for_grid(grid)) is None
        assert stacked_support_reason(grid, NoProtection()) is None

    def test_offline_and_eager_online_replay(self, app):
        grid = app.build_grid()
        offline = make_protector_factory("offline-abft", period=4)(grid)
        assert stacked_support_reason(grid, offline) is None
        halving = _HalvingOffline.for_grid(grid, period=4)
        assert "_HalvingOffline" in stacked_support_reason(grid, halving)
        eager = OnlineABFT.for_grid(grid, eager_row_checksum=True)
        assert stacked_support_reason(grid, eager) is not None


class _Halving:
    """Halves the domain after each protected sweep: a protector
    subclass's own ``step``, which only a replayed run runs."""

    def step(self, grid, inject=None):
        report = super().step(grid, inject=inject)
        np.multiply(grid.u, 0.5, out=grid.u)
        return report


class _HalvingNoProtection(_Halving, NoProtection):
    pass


class _HalvingOffline(_Halving, OfflineABFT):
    pass


class TestProtectorSubclassesReplay:
    """Only the library's own three protector classes stack: a subclass
    may override what the stacked batch runs in its place."""

    @pytest.mark.parametrize(
        "protector_factory",
        [
            lambda grid: _HalvingNoProtection(),
            lambda grid: _HalvingOffline.for_grid(grid, period=4),
        ],
        ids=["no-abft", "offline-abft"],
    )
    def test_subclass_overriding_step_replays(self, protector_factory):
        app = make_hotspot_app(TILE)
        reference = app.reference_solution(6)
        config = CampaignConfig(iterations=6, repetitions=3, inject=True, seed=1)
        legacy = run_campaign(
            app.build_grid, protector_factory, config, reference=reference
        )
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(
                app.build_grid, protector_factory, config, reference=reference
            )
        # The halving shows in every run: unprotected, as an arithmetic
        # error; offline, as the rollbacks that undo it.
        assert all(
            r.arithmetic_error > 1.0 or r.rollbacks > 1 for r in legacy.records
        )
        assert_equivalent(legacy, got)
        assert got.strategy_counts() == {"replay": 3}
        name = type(protector_factory(app.build_grid())).__name__
        assert [name in r for r in got.fallback_reasons()] == [True]


class TestHookFactory:
    def test_hooks_force_replay_and_match_manual_loop(self, app, reference):
        class Perturb:
            def __init__(self, iteration, index):
                self.iteration = iteration
                self.index = index
                self.fired = False

            def __call__(self, grid, iteration):
                if not self.fired and iteration == self.iteration:
                    grid.u[self.index] *= 1.5
                    self.fired = True

        draws = [(3, (4, 4, 1)), (5, (1, 2, 0)), (7, (9, 9, 3))]
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=len(draws), inject=False
        )
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(
                app.build_grid,
                factory,
                config,
                reference=reference,
                hook_factory=lambda i: Perturb(*draws[i]),
            )
        for (iteration, index), record in zip(draws, got.records):
            grid = app.build_grid()
            protector = factory(grid)
            hook = Perturb(iteration, index)
            report = protector.run(grid, ITERATIONS, inject=hook)
            det, cor, unc, rb, rec = resolve_run_counters(protector, report)
            assert record.errors_detected == det
            assert record.errors_corrected == cor
            assert record.arithmetic_error == l2_error(reference, grid.u)

    def test_stacked_run_after_hook_replay_reuses_pristine_initial(
        self, app, reference
    ):
        # Regression: a hook campaign replays on the worker's persistent
        # grid and leaves it at the final state of its last run; a
        # subsequent hook-less (stacked) campaign on the same cached
        # state must still start every run from the campaign's initial
        # domain, not from the evolved grid.
        factory = make_protector_factory("online-abft")
        hook_config = CampaignConfig(
            iterations=ITERATIONS, repetitions=2, inject=False
        )
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=4, inject=True, seed=31
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            engine.run(
                app.build_grid,
                factory,
                hook_config,
                reference=reference,
                hook_factory=lambda i: (lambda grid, iteration: None),
            )
            got = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(legacy, got)

    def test_hooks_with_inject_rejected(self, app, reference):
        # Hooks replace the fault-plan injector; combining them with
        # inject=True would emit records whose fault plans never fired.
        config = CampaignConfig(iterations=4, repetitions=2, inject=True)
        with CampaignEngine(executor="serial") as engine:
            with pytest.raises(ValueError, match="inject=False"):
                engine.run(
                    app.build_grid,
                    make_protector_factory("no-abft"),
                    config,
                    reference=reference,
                    hook_factory=lambda i: (lambda grid, iteration: None),
                )

    def test_hook_factory_called_in_run_order(self, app, reference):
        calls = []

        def hook_factory(i):
            calls.append(i)
            return lambda grid, iteration: None

        config = CampaignConfig(iterations=4, repetitions=5, inject=False)
        with CampaignEngine(executor="serial", batch_size=2) as engine:
            engine.run(
                app.build_grid,
                make_protector_factory("no-abft"),
                config,
                reference=reference,
                hook_factory=hook_factory,
            )
        assert calls == [0, 1, 2, 3, 4]


class TestAllocationProfile:
    def test_zero_full_domain_allocations_per_run_after_warmup(self):
        # The gated property of the stacked strategy: once a worker's
        # state is warm, a whole campaign allocates only checksum-scale
        # transients — no per-run grids, protectors or domain copies.
        tile = (64, 64, 8)
        app = make_hotspot_app(tile)
        iterations, repetitions = 6, 8
        reference = app.reference_solution(iterations)
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=iterations, repetitions=repetitions, inject=True, seed=1
        )
        domain_bytes = int(np.prod(tile)) * 4
        with CampaignEngine(executor="serial", batch_size=repetitions) as engine:
            engine.run(app.build_grid, factory, config, reference=reference)
            tracemalloc.start()
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            engine.run(app.build_grid, factory, config, reference=reference)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        per_run = max(0, peak - baseline - 192 * 1024) / repetitions
        assert per_run < domain_bytes / 2


class TestProcessExecutorContract:
    def test_unpicklable_factory_raises_clear_error(self, app, reference):
        config = CampaignConfig(iterations=4, repetitions=2, inject=False)
        with CampaignEngine(executor="process", workers=1) as engine:
            with pytest.raises(ValueError, match="picklable"):
                engine.run(
                    app.build_grid,
                    lambda grid: NoProtection(),
                    config,
                    reference=reference,
                )


class TestStackedOnEveryBackend:
    """Stacked batches on each compute path: the same records as
    replay/legacy."""

    @pytest.mark.parametrize(
        "method", ["no-abft", "online-abft", "offline-abft"]
    )
    @pytest.mark.parametrize("inject", [False, True])
    @pytest.mark.parametrize("backend", COMPUTE_PATHS, indirect=True)
    def test_stacked_replay_and_legacy_agree(
        self, app, reference, method, inject, backend
    ):
        factory = make_protector_factory(method, period=4)
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=6, inject=inject, seed=23
        )
        legacy = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        with CampaignEngine(executor="serial") as engine:
            auto = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            replay = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="replay",
            )
        assert_equivalent(legacy, auto)
        assert_equivalent(legacy, replay)
        assert auto.strategy_counts() == {"stacked": 6}
        assert auto.fallback_reasons() == []


class TestStrategyReporting:
    def test_support_reasons(self, app):
        grid = app.build_grid()
        assert stacked_support_reason(grid, OnlineABFT.for_grid(grid)) is None
        assert stacked_support_reason(grid, NoProtection()) is None
        offline = make_protector_factory("offline-abft", period=4)(grid)
        assert stacked_support_reason(grid, offline) is None
        eager = OnlineABFT.for_grid(grid, eager_row_checksum=True)
        assert "eagerly" in stacked_support_reason(grid, eager)

    def test_forced_replay_reports_the_request(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=5, seed=17)
        with CampaignEngine(executor="serial", batch_size=2) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="replay",
            )
        assert result.strategy_counts() == {"replay": 5}
        assert [b.width for b in result.batch_strategies] == [2, 2, 1]
        assert [b.start for b in result.batch_strategies] == [0, 2, 4]
        assert result.fallback_reasons() == ["replay strategy requested"]

    def test_non_domain_targets_fall_back_with_reason(self, app, reference):
        from repro.faults.models import make_fault_model

        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=4, seed=5,
            fault_model=make_fault_model("region-checksum"),
        )
        with CampaignEngine(executor="serial") as engine:
            auto = engine.run(
                app.build_grid, factory, config, reference=reference
            )
        assert auto.strategy_counts() == {"replay": 4}
        assert any("non-domain" in r for r in auto.fallback_reasons())

    def test_auto_strategy_runs_and_reports_stacked(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=5, seed=17)
        legacy = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        with CampaignEngine(executor="serial") as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
        assert_equivalent(legacy, result)
        assert result.strategy_counts() == {"stacked": 5}

    def test_legacy_loop_reports_no_batches(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=2, seed=3)
        legacy = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        assert legacy.batch_strategies == []
        assert legacy.strategy_counts() == {}


@dataclass(frozen=True)
class _OnePlan(FaultModel):
    """Draws one domain plan per run: ``index`` at iteration 3, bit 30."""

    index: tuple = (0, 0, 0)

    name = "one-plan"

    def draw(self, rng, shape, iterations, dtype=np.float32):
        return [FaultPlan(iteration=3, index=self.index, bit=30)]


class TestPlanIndexCheck:
    """Every path checks a domain plan's index before it flips a bit."""

    @pytest.mark.parametrize(
        "index", [(-1, 0, 0), (16, 0, 0)], ids=["negative", "past-the-end"]
    )
    def test_out_of_range_index_raises_on_every_path(
        self, app, reference, index
    ):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=3, seed=0,
            fault_model=_OnePlan(index),
        )
        match = re.escape(f"index {index} is out of range along axis 0")
        with pytest.raises(ValueError, match=match):
            run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            valid = replace(config, fault_model=_OnePlan())
            auto = engine.run(
                app.build_grid, factory, valid, reference=reference
            )
            assert auto.strategy_counts() == {"stacked": 3}
            for strategy in (None, "replay"):
                with pytest.raises(ValueError, match=match):
                    engine.run(
                        app.build_grid, factory, config, reference=reference,
                        strategy=strategy,
                    )


class TestStackedWidth:
    def test_default_width(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=33, seed=4)
        with CampaignEngine(executor="serial") as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
        assert [b.width for b in result.batch_strategies] == [32, 1]

    def test_batch_size_caps_the_stacked_width(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=6, seed=9)
        with CampaignEngine(executor="serial", batch_size=2) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
        assert [b.width for b in result.batch_strategies] == [2, 2, 2]
        with CampaignEngine(executor="serial", batch_size=3) as engine:
            wider = engine.run(
                app.build_grid, factory, config, reference=reference
            )
        assert [b.width for b in wider.batch_strategies] == [3, 3]
        assert_equivalent(result, wider)

    @pytest.mark.parametrize("method", ["no-abft", "online-abft", "offline-abft"])
    def test_narrower_last_batch_steps_a_whole_pair(
        self, app, reference, method, monkeypatch
    ):
        """12 runs in batches of 8: the last batch of 4 gets a pair of its
        own width, so each of its batched steps takes the compiled flat
        sweep, as the first batch's do; the records equal the legacy
        loop's (offline's period 4 leaves a short last window), and the
        worker keeps one stacked pair, the last batch's."""
        from repro.backends import FusedBackend, native
        import repro.faults.engine as engine_module

        lib = native.library()
        if lib is None:
            pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
        sweeps, steps = [], []

        def spy(kernel):
            def call(*args):
                sweeps.append(1)
                return kernel(*args)
            return call

        batch_step_into = FusedBackend.batch_step_into

        def spy_step(backend, src, dst, plan):
            before = len(sweeps)
            interior = batch_step_into(backend, src, dst, plan)
            steps.append((src.shape[-1], len(sweeps) - before))
            return interior

        monkeypatch.setattr(FusedBackend, "batch_step_into", spy_step)
        factory = make_protector_factory(method, period=4)
        config = CampaignConfig(iterations=ITERATIONS, repetitions=12, seed=13)
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        table = {key: spy(fn) for key, fn in lib.sweep.items()}
        with mock.patch.dict(lib.sweep, table), CampaignEngine(
            executor="serial", batch_size=8
        ) as engine:
            got = engine.run(app.build_grid, factory, config, reference=reference)
            mine = f"engine-{engine._token}-"
            states = [
                state for key, state in engine_module._WORKER_LOCAL.cache.items()
                if key.startswith(mine)
            ]
        assert [b.width for b in got.batch_strategies] == [8, 4]
        assert got.strategy_counts() == {"stacked": 12}
        assert steps == [(8, 1)] * ITERATIONS + [(4, 1)] * ITERATIONS
        assert_equivalent(legacy, got)
        (state,) = states
        assert isinstance(state.stacked, engine_module._StackedBatch)
        assert state.stacked.width == 4


def _l2_bits(result):
    """Every record's deterministic fields, the l2 error by its bits (a
    NaN error compares equal to itself only so)."""
    return [
        record_key(replace(r, arithmetic_error=0.0))
        + (np.float64(r.arithmetic_error).tobytes(),)
        for r in result.records
    ]


class TestNonFiniteFlipCampaign:
    """Bit 30 of a float32 in [1, 2) turns it into NaN: every run of such
    a campaign is detected, on every path, and offline ABFT rolls it
    back."""

    @staticmethod
    def _grid():
        u0 = (1 + np.random.default_rng(0).random((32, 32))).astype(np.float32)
        return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())

    @pytest.mark.parametrize("method", ["online-abft", "offline-abft"])
    def test_every_run_is_detected_on_every_path(self, method):
        factory = make_protector_factory(method, period=4)
        config = CampaignConfig(
            iterations=10, repetitions=6, seed=2,
            fault_model=SingleBitFlip(bit=30),
        )
        legacy = run_campaign(self._grid, factory, config)
        with CampaignEngine(executor="serial") as engine:
            stacked = engine.run(self._grid, factory, config)
            replay = engine.run(self._grid, factory, config, strategy="replay")
        assert stacked.strategy_counts() == {"stacked": 6}
        assert _l2_bits(stacked) == _l2_bits(legacy) == _l2_bits(replay)
        assert all(r.errors_detected > 0 for r in stacked.records)
        errors = [r.arithmetic_error for r in stacked.records]
        if method == "offline-abft":
            # A rollback re-runs the window without the flip.
            assert errors == [0.0] * 6
        else:
            # Eq. 10 cannot restore a NaN.
            assert all(r.errors_corrected == 0 for r in stacked.records)
            assert np.isnan(errors).all()


class TestStackedClosedBorders:
    """The stacked batch and its flagged-slot delegate pass the pair's
    boundary to the interpolation, as a replayed run's ``step`` does."""

    @pytest.mark.parametrize("boundary_key", sorted(_BOUNDARIES_3D))
    def test_stacked_equals_replay_through_corrections(
        self, boundary_key, monkeypatch
    ):
        import repro.core.online as online
        import repro.faults.engine as engine_module

        boundaries = []

        def spy(module):
            original = module.interpolate_checksum_padded

            def interpolate(*args, **kwargs):
                boundaries.append(kwargs.get("boundary"))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, "interpolate_checksum_padded", interpolate)

        spy(engine_module)  # the stacked call
        spy(online)  # the delegate's and replay's protector

        def factory():
            return Grid3D(
                _U0_3D, seven_point_diffusion_3d(0.1), _BOUNDARIES_3D[boundary_key]
            )

        def protector_factory(grid):
            return OnlineABFT.for_grid(grid, epsilon=1e-5)

        config = CampaignConfig(iterations=8, repetitions=6, inject=True, seed=12)
        legacy = run_campaign(factory, protector_factory, config)
        with CampaignEngine(executor="serial", batch_size=6) as engine:
            stacked = engine.run(factory, protector_factory, config)
            replay = engine.run(factory, protector_factory, config, strategy="replay")
        assert stacked.strategy_counts() == {"stacked": 6}
        assert_equivalent(legacy, stacked)
        assert_equivalent(legacy, replay)
        assert sum(r.errors_corrected for r in stacked.records) > 0
        assert boundaries and None not in boundaries

    def test_screen_flags_exactly_the_slots_detect_errors_flags(self, rng):
        from repro.core.detection import detect_errors
        from repro.faults.engine import _detection_screen

        eps = 2.0 ** -20  # 1 + eps is exact: a relative error can equal it
        computed = rng.uniform(1.0, 100.0, (10, 4, 9))
        predicted = computed * (1.0 + rng.normal(0.0, 1e-9, computed.shape))
        assert _detection_screen(computed, predicted, eps) is None
        computed[3, 1, 1], predicted[3, 1, 1] = 1.0, 1.0 + 2 * eps
        computed[0, 0, 2], predicted[0, 0, 2] = 1.0, 1.0 + eps  # not over eps
        computed[9, 3, 3], predicted[9, 3, 3] = np.nan, 1.0  # a NaN error flags
        computed[5, 2, 4], predicted[5, 2, 4] = 0.0, 1e-3  # the zero fallback
        computed[5, 2, 5], predicted[5, 2, 5] = -0.0, 0.0
        computed[7, 0, 6], predicted[7, 0, 6] = 2.0, np.inf
        predicted[2, 3, 8] *= 1.0 + 1e-4
        want = [
            slot for slot in range(computed.shape[-1])
            if detect_errors(computed[..., slot], predicted[..., slot], eps).detected
        ]
        assert want == [1, 3, 4, 6, 8]
        assert list(_detection_screen(computed, predicted, eps)) == want
