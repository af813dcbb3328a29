"""Pluggable fault models: draws, registry, hooks and campaign plumbing.

The fault model is an adversarial axis of the campaigns: beyond the
paper's single uniform bit flip (Section 5.1), the suite must draw
multi-bit bursts, MTBF-driven arrival processes (including legitimately
fault-free runs) and region-targeted corruption, and route every target
through the right injection hook.  The legacy model's RNG consumption is
pinned bit-for-bit so historical campaign records stay reproducible.
"""

import numpy as np
import pytest

from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.bitflip import bit_width
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultInjector, FaultPlan, random_fault_plan
from repro.faults.models import (
    ChecksumInjector,
    CompositeInjector,
    FaultModel,
    MultiBitBurst,
    PoissonArrival,
    RankCrash,
    RegionTargeted,
    SingleBitFlip,
    available_fault_models,
    make_fault_model,
    make_injector,
)


class TestSingleBitFlip:
    def test_rng_consumption_identical_to_legacy_loop(self):
        """Seeded campaigns must reproduce their historical fault plans."""
        for faults in (1, 2, 5):
            legacy_rng = np.random.default_rng(42)
            model_rng = np.random.default_rng(42)
            legacy = [
                random_fault_plan(legacy_rng, (24, 20), 64, dtype=np.float32)
                for _ in range(faults)
            ]
            drawn = SingleBitFlip(faults_per_run=faults).draw(
                model_rng, (24, 20), 64, dtype=np.float32
            )
            assert drawn == legacy

    def test_pinned_bit(self):
        plans = SingleBitFlip(faults_per_run=3, bit=29).draw(
            np.random.default_rng(0), (8, 8), 10
        )
        assert all(p.bit == 29 for p in plans)

    def test_validation(self):
        with pytest.raises(ValueError, match="faults_per_run"):
            SingleBitFlip(faults_per_run=0)


class TestMultiBitBurst:
    def test_burst_strikes_one_iteration_within_spread(self):
        shape = (16, 12)
        for seed in range(20):
            plans = MultiBitBurst(burst_size=4, spread=2).draw(
                np.random.default_rng(seed), shape, 30
            )
            assert len(plans) == 4
            anchor = plans[0]
            for p in plans:
                assert p.iteration == anchor.iteration
                assert p.target == "domain"
                for i, (a, n) in enumerate(zip(anchor.index, shape)):
                    assert 0 <= p.index[i] < n
                    assert abs(p.index[i] - a) <= 2

    def test_burst_of_one_is_a_single_flip(self):
        plans = MultiBitBurst(burst_size=1).draw(
            np.random.default_rng(3), (8, 8), 10
        )
        assert len(plans) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="burst_size"):
            MultiBitBurst(burst_size=0)
        with pytest.raises(ValueError, match="spread"):
            MultiBitBurst(spread=-1)


class TestPoissonArrival:
    def test_arrivals_ordered_and_in_range(self):
        plans = PoissonArrival(mtbf=4.0).draw(
            np.random.default_rng(1), (8, 8), 40
        )
        assert plans, "mtbf 4 over 40 iterations should draw arrivals"
        iters = [p.iteration for p in plans]
        assert iters == sorted(iters)
        assert all(1 <= i <= 40 for i in iters)

    def test_long_mtbf_legitimately_draws_nothing(self):
        plans = PoissonArrival(mtbf=1e9).draw(
            np.random.default_rng(2), (8, 8), 10
        )
        assert plans == []

    def test_mean_arrival_count_tracks_mtbf(self):
        rng = np.random.default_rng(7)
        counts = [
            len(PoissonArrival(mtbf=8.0).draw(rng, (4, 4), 80))
            for _ in range(200)
        ]
        assert 8.0 < float(np.mean(counts)) < 12.0  # ~80/8 = 10 expected

    def test_per_rank_mtbf_preserves_system_rate(self):
        """n rank blocks each see MTBF n*mtbf: the aggregate rate matches."""
        rng = np.random.default_rng(11)
        shapes = [(6, 8)] * 4
        totals = [
            sum(
                len(p)
                for p in PoissonArrival(mtbf=8.0).draw_for_ranks(
                    rng, shapes, 80
                )
            )
            for _ in range(100)
        ]
        assert 8.0 < float(np.mean(totals)) < 12.0

    def test_validation(self):
        with pytest.raises(ValueError, match="mtbf"):
            PoissonArrival(mtbf=0.0)


class TestRankCrashHorizon:
    def test_pinned_crash_beyond_horizon_raises(self):
        model = RankCrash(at_iteration=50, rank=1, n_ranks=2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="beyond the run's 8 iterations"):
            model.draw(rng, (8, 8), 8)
        with pytest.raises(ValueError, match="beyond the run's 8 iterations"):
            model.draw_for_ranks(rng, [(4, 8)] * 2, 8)

    def test_pinned_crash_on_last_iteration_is_drawn(self):
        plans = RankCrash(at_iteration=8, rank=1, n_ranks=2).draw(
            np.random.default_rng(0), (8, 8), 8
        )
        assert [(p.target, p.iteration) for p in plans] == [("crash", 8)]


class TestRegionTargeted:
    def test_checksum_plan_indexes_the_reduced_shape(self):
        shape = (12, 9)
        for axis in (0, 1):
            plans = RegionTargeted(region="checksum", axis=axis).draw(
                np.random.default_rng(axis), shape, 20
            )
            (plan,) = plans
            assert plan.target == "checksum"
            assert plan.axis == axis
            assert len(plan.index) == 1
            assert 0 <= plan.index[0] < shape[1 - axis]

    def test_checksum_bits_cover_the_float64_width(self):
        bits = set()
        for seed in range(300):
            (plan,) = RegionTargeted(region="checksum").draw(
                np.random.default_rng(seed), (8, 8), 10
            )
            bits.add(plan.bit)
        assert max(bits) > 31  # stored checksums are float64, not float32
        assert max(bits) < bit_width(np.float64)

    def test_ghost_plan_addresses_a_slab(self):
        (plan,) = RegionTargeted(region="ghost", axis=0).draw(
            np.random.default_rng(5), (12, 9), 20
        )
        assert plan.target == "ghost"
        assert plan.index[0] == 0  # slab is one layer thick along the axis
        assert 0 <= plan.index[1] < 9
        assert plan.side in (0, 1)

    def test_payload_plan_carries_the_action(self):
        (plan,) = RegionTargeted(region="payload", action="drop").draw(
            np.random.default_rng(6), (12, 9), 20
        )
        assert plan.target == "payload"
        assert plan.action == "drop"
        assert len(plan.index) == 1

    def test_interior_region_is_a_domain_flip(self):
        (plan,) = RegionTargeted(region="interior").draw(
            np.random.default_rng(7), (12, 9), 20
        )
        assert plan.target == "domain"

    def test_validation(self):
        with pytest.raises(ValueError, match="region"):
            RegionTargeted(region="bus")
        with pytest.raises(ValueError, match="action"):
            RegionTargeted(action="mangle")


class TestRegistry:
    def test_builtin_models_registered(self):
        names = available_fault_models()
        for name in (
            "bitflip", "burst", "mtbf", "region",
            "region-checksum", "region-ghost", "region-payload",
        ):
            assert name in names

    def test_make_by_name_with_params(self):
        model = make_fault_model("mtbf", mtbf=16.0)
        assert isinstance(model, PoissonArrival)
        assert model.mtbf == 16.0
        region = make_fault_model("region-ghost", axis=0)
        assert isinstance(region, RegionTargeted)
        assert region.region == "ghost"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="bitflip"):
            make_fault_model("cosmic-ray")

    def test_models_are_hashable_and_picklable(self):
        import pickle

        for model in (
            SingleBitFlip(), MultiBitBurst(), PoissonArrival(),
            RegionTargeted(),
        ):
            assert hash(model) == hash(pickle.loads(pickle.dumps(model)))


class TestMakeInjector:
    def test_empty_plans_yield_no_hook(self):
        assert make_injector([]) is None

    def test_domain_plans_use_the_classic_injector(self):
        hook = make_injector([FaultPlan(iteration=1, index=(0, 0), bit=3)])
        assert isinstance(hook, FaultInjector)

    def test_checksum_plans_need_a_protector(self):
        plan = FaultPlan(iteration=2, index=(0,), bit=40, target="checksum")
        with pytest.raises(ValueError, match="protector"):
            make_injector([plan])

    def test_ghost_and_payload_have_no_serial_meaning(self):
        for target in ("ghost", "payload"):
            plan = FaultPlan(
                iteration=1, index=(0, 0) if target == "ghost" else (0,),
                bit=3, target=target,
            )
            with pytest.raises(ValueError, match="distributed"):
                make_injector([plan], protector=object())

    def test_mixed_targets_compose_and_expose_union_plans(self, rng):
        from repro.core.online import OnlineABFT
        from repro.stencil.boundary import BoundaryCondition
        from repro.stencil.grid import Grid2D
        from repro.stencil.kernels import five_point_diffusion

        u0 = (rng.random((12, 10)) * 100).astype(np.float32)
        grid = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        domain = FaultPlan(iteration=3, index=(4, 4), bit=26)
        checksum = FaultPlan(
            iteration=4, index=(2,), bit=62, target="checksum",
            axis=protector.verify_axis,
        )
        hook = make_injector([domain, checksum], protector)
        assert isinstance(hook, CompositeInjector)
        assert hook.plans == [domain, checksum]
        protector.run(grid, 8, inject=hook)
        assert hook.fired_count == 2

    def test_checksum_injector_rejects_foreign_targets(self):
        with pytest.raises(ValueError, match="checksum"):
            ChecksumInjector(
                [FaultPlan(iteration=1, index=(0, 0), bit=3)], object()
            )


class TestCampaignPlumbing:
    def test_config_rejects_non_model(self):
        with pytest.raises(TypeError, match="FaultModel"):
            CampaignConfig(iterations=4, repetitions=2, fault_model="mtbf")

    def test_default_model_resolves_to_legacy_bitflip(self):
        config = CampaignConfig(
            iterations=4, repetitions=2, faults_per_run=3, bit=29
        )
        model = config.resolved_fault_model()
        assert model == SingleBitFlip(faults_per_run=3, bit=29)

    def test_explicit_bitflip_model_reproduces_default_records(self):
        app = make_hotspot_app((16, 16, 4))
        reference = app.reference_solution(8)
        factory = make_protector_factory("online-abft")
        base = CampaignConfig(iterations=8, repetitions=5, seed=13)
        explicit = CampaignConfig(
            iterations=8, repetitions=5, seed=13, fault_model=SingleBitFlip()
        )
        a = run_campaign(app.build_grid, factory, base, reference=reference)
        b = run_campaign(app.build_grid, factory, explicit, reference=reference)
        assert [r.faults for r in a.records] == [r.faults for r in b.records]
        assert [r.arithmetic_error for r in a.records] == [
            r.arithmetic_error for r in b.records
        ]

    @pytest.mark.parametrize("model", [
        PoissonArrival(mtbf=6.0),
        MultiBitBurst(burst_size=3, spread=1),
    ])
    def test_engine_matches_legacy_loop_under_pluggable_models(self, model):
        app = make_hotspot_app((16, 16, 4))
        reference = app.reference_solution(10)
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=10, repetitions=6, seed=5, fault_model=model
        )
        legacy = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        with CampaignEngine(executor="serial", batch_size=3) as engine:
            got = engine.run(
                app.build_grid, factory, config, reference=reference
            )
        key = lambda r: (
            r.run_index, r.arithmetic_error, r.errors_detected,
            r.errors_corrected, r.errors_uncorrected, r.rollbacks,
            r.recomputed_iterations,
            tuple((p.iteration, p.index, p.bit, p.target) for p in r.faults),
        )
        assert [key(r) for r in got.records] == [key(r) for r in legacy.records]

    def test_mtbf_campaign_supports_fault_free_runs(self):
        app = make_hotspot_app((16, 16, 4))
        reference = app.reference_solution(4)
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=4, repetitions=8, seed=1,
            fault_model=PoissonArrival(mtbf=20.0),
        )
        result = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        empties = [r for r in result.records if not r.faults]
        assert empties, "a 20-iteration MTBF over 4 iterations must skip runs"
        for r in empties:
            assert r.fault is None
            assert r.arithmetic_error == 0.0

    def test_custom_model_subclass_plugs_in(self):
        class FixedPlan(FaultModel):
            name = "fixed"

            def draw(self, rng, shape, iterations, dtype=np.float32):
                return [FaultPlan(iteration=1, index=(0,) * len(shape), bit=30)]

        app = make_hotspot_app((16, 16, 4))
        reference = app.reference_solution(4)
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=4, repetitions=2, seed=0, fault_model=FixedPlan()
        )
        result = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        assert all(
            r.faults == [FaultPlan(iteration=1, index=(0, 0, 0), bit=30)]
            for r in result.records
        )
