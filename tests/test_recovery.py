"""Fail-stop rank-crash recovery: models, channel, checkpoints, bit-identity.

The headline invariant of the recovery subsystem is exactness: a run
that loses a rank mid-execution and recovers from buddy checkpoints
must finish **bitwise-identical** to the failure-free run — final
domain *and* detection/correction counters — for every boundary kind,
rank count and protection setting, including runs where
silent bit flips strike inside the replayed window or on the rebuilt
rank.  The hypothesis sweep at the bottom pins that invariant.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.models import (
    DistributedFaultInjector,
    RankCrash,
    available_fault_models,
    make_fault_model,
)
from repro.parallel.simmpi import (
    CKPT_META_TAG,
    CKPT_TAG,
    DETECTION_PERIOD,
    ChannelError,
    CheckpointCorrupt,
    DistributedStencilRunner,
    RankFailure,
    RecoveryError,
    SimChannel,
)
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import five_point_diffusion, seven_point_diffusion_3d
from repro.stencil.spec import StencilSpec


def _grid_2d(bc=None, shape=(16, 12), seed=42):
    rng = np.random.default_rng(seed)
    u0 = (rng.random(shape) * 100.0).astype(np.float32)
    return Grid2D(
        u0, five_point_diffusion(0.2), bc or BoundaryCondition.clamp()
    )


def _grid_3d(bc=None, shape=(10, 8, 4), seed=42):
    rng = np.random.default_rng(seed)
    u0 = (rng.random(shape) * 100.0).astype(np.float32)
    return Grid3D(
        u0, seven_point_diffusion_3d(0.1), bc or BoundaryCondition.clamp()
    )


def _crash_plan(iteration: int, rank: int) -> FaultPlan:
    return FaultPlan(
        iteration=iteration, index=(), bit=0, target="crash", rank=rank
    )


def _crash_injector(runner, iteration: int, rank: int, extra=None):
    per_rank = [[] for _ in range(runner.n_ranks)]
    per_rank[rank].append(_crash_plan(iteration, rank))
    for r, plan in extra or []:
        per_rank[r].append(plan)
    return DistributedFaultInjector(runner, per_rank)


# ---------------------------------------------------------------------------
# RankCrash fault model
# ---------------------------------------------------------------------------
class TestRankCrashModel:
    def test_registered(self):
        names = available_fault_models()
        assert "rank-crash" in names
        assert "rank-crash-mtbf" in names

    def test_deterministic_draw(self):
        model = make_fault_model(
            "rank-crash", at_iteration=7, rank=2, n_ranks=4
        )
        plans = model.draw(np.random.default_rng(0), (16, 16), 32)
        assert len(plans) == 1
        (plan,) = plans
        assert plan.target == "crash"
        assert plan.iteration == 7
        assert plan.rank == 2

    def test_uniform_draw_in_range(self):
        model = RankCrash(n_ranks=3)
        for seed in range(20):
            plans = model.draw(np.random.default_rng(seed), (8, 8), 10)
            assert len(plans) == 1
            assert 1 <= plans[0].iteration <= 10
            assert 0 <= plans[0].rank < 3

    def test_mtbf_beyond_horizon_draws_nothing(self):
        model = make_fault_model("rank-crash-mtbf", mtbf=1e12, n_ranks=4)
        assert model.draw(np.random.default_rng(0), (8, 8), 16) == []

    def test_mtbf_short_always_crashes(self):
        model = make_fault_model("rank-crash-mtbf", mtbf=0.25, n_ranks=4)
        for seed in range(10):
            plans = model.draw(np.random.default_rng(seed), (8, 8), 64)
            assert len(plans) == 1
            assert plans[0].target == "crash"

    def test_bitflips_mixed_into_draw(self):
        model = RankCrash(at_iteration=5, rank=0, n_ranks=2, bitflips=3)
        plans = model.draw(np.random.default_rng(1), (8, 8), 16)
        assert len(plans) == 4
        assert plans[0].target == "crash"
        assert all(p.target == "domain" for p in plans[1:])

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n_ranks=1), "n_ranks >= 2"),
            (dict(at_iteration=0), "1-based"),
            (dict(rank=4, n_ranks=4), "out of range"),
            (dict(mtbf=0.0), "mtbf must be > 0"),
            (dict(at_iteration=3, mtbf=8.0), "not both"),
            (dict(bitflips=-1), "bitflips"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RankCrash(**kwargs)

    def test_serial_injector_rejects_crash(self):
        with pytest.raises(ValueError, match="distributed run"):
            FaultInjector([_crash_plan(3, 0)])

    def test_from_global_places_victim(self):
        """A crash campaign's draw maps onto the runner: the crash on its
        victim rank, each flip on the rank owning its global index."""
        model = RankCrash(at_iteration=5, rank=2, n_ranks=4, bitflips=2)
        runner = DistributedStencilRunner(
            _grid_2d(shape=(16, 8)), n_ranks=4, protect=True
        )
        plans = model.draw(np.random.default_rng(3), (16, 8), 16)
        injector = DistributedFaultInjector.from_global(runner, plans)
        assert [p.target for p in injector.plans_by_rank[2]].count("crash") == 1
        flips = [
            (r, p) for r, rank_plans in enumerate(injector.plans_by_rank)
            for p in rank_plans if p.target == "domain"
        ]
        drawn = [p for p in plans if p.target == "domain"]
        assert len(flips) == len(drawn) == 2
        for (r, local), plan in zip(flips, drawn):
            assert runner.rank_of_global_index(plan.index) == (r, local.index)
            assert (local.iteration, local.bit) == (plan.iteration, plan.bit)

    def test_from_global_victim_out_of_range(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=3, protect=True)
        with pytest.raises(ValueError, match="rank 3 out of range for 3 ranks"):
            DistributedFaultInjector.from_global(runner, [_crash_plan(2, 3)])

    def test_from_global_refuses_other_targets(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=2, protect=True)
        plan = FaultPlan(
            iteration=2, index=(3,), bit=30, target="checksum", axis=0
        )
        with pytest.raises(ValueError, match="got a 'checksum' plan"):
            DistributedFaultInjector.from_global(runner, [plan])


# ---------------------------------------------------------------------------
# Channel resilience
# ---------------------------------------------------------------------------
class TestChannelResilience:
    def test_empty_mailbox_error_names_link_and_inventory(self):
        ch = SimChannel()
        ch.send(0, 1, "halo", np.zeros(4, dtype=np.float32))
        with pytest.raises(ChannelError, match="no message") as exc:
            ch.recv(2, 1, "other")
        msg = str(exc.value)
        assert "link rank 2 -> rank 1" in msg
        assert "'halo': 1" in msg

    def test_empty_mailbox_reports_nothing_pending(self):
        ch = SimChannel()
        with pytest.raises(ChannelError, match="nothing pending"):
            ch.recv(0, 1, "halo")

    def test_recv_from_failed_rank_raises_rank_failure(self):
        ch = SimChannel()
        ch.mark_failed(3)
        with pytest.raises(RankFailure, match="declared failed") as exc:
            ch.recv(3, 0, "halo")
        assert exc.value.rank == 3

    def test_failed_rank_pending_message_still_delivered(self):
        # Fail-stop means "stops posting", not "the wire loses what was
        # already posted": a message in the mailbox predates the death.
        ch = SimChannel()
        payload = np.arange(4, dtype=np.float32)
        ch.send(2, 0, "halo", payload)
        ch.mark_failed(2)
        np.testing.assert_array_equal(ch.recv(2, 0, "halo"), payload)
        with pytest.raises(RankFailure):
            ch.recv(2, 0, "halo")

    def test_liveness_and_revive(self):
        ch = SimChannel()
        assert ch.failed_ranks == frozenset()
        ch.check_liveness(range(4))  # no-op when everyone is alive
        ch.mark_failed(1)
        assert ch.failed_ranks == frozenset({1})
        with pytest.raises(RankFailure, match="missed its heartbeat"):
            ch.check_liveness(range(4))
        ch.revive(1)
        assert ch.failed_ranks == frozenset()
        ch.check_liveness(range(4))

    def test_purge_and_pending_tags(self):
        ch = SimChannel()
        ch.send(0, 1, "to_hi", np.zeros(3, dtype=np.float32))
        ch.send(2, 1, "to_lo", np.zeros(3, dtype=np.float32))
        ch.send(0, 2, "ckpt", np.zeros(3, dtype=np.float32))
        assert ch.pending_tags(1) == {"to_hi": 1, "to_lo": 1}
        assert ch.pending_tags() == {"to_hi": 1, "to_lo": 1, "ckpt": 1}
        assert ch.purge() == 3
        assert ch.pending() == 0


# ---------------------------------------------------------------------------
# Buddy checkpointing
# ---------------------------------------------------------------------------
class TestBuddyCheckpointing:
    def test_off_by_default(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=2)
        runner.run(8)
        assert runner.recovery.checkpoints_taken == 0
        assert CKPT_TAG not in runner.channel.messages_by_tag

    def test_default_period_is_detection_period(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=2)
        assert DETECTION_PERIOD == 16
        assert runner.checkpoint_period == DETECTION_PERIOD

    def test_explicit_period_cadence_and_traffic(self):
        runner = DistributedStencilRunner(
            _grid_2d(), n_ranks=4, checkpoint_period=5
        )
        runner.run(20)
        stats = runner.recovery
        # Initial commit at iteration 0 plus one per due period.
        assert stats.checkpoints_taken == 1 + 20 // 5
        by_tag = runner.channel.messages_by_tag
        assert by_tag[CKPT_TAG] == stats.checkpoints_taken * 4
        assert by_tag[CKPT_META_TAG] == stats.checkpoints_taken * 4
        bytes_by_tag = runner.channel.bytes_by_tag
        assert (
            bytes_by_tag[CKPT_TAG] + bytes_by_tag[CKPT_META_TAG]
            == stats.checkpoint_bytes
        )
        assert stats.checkpoint_messages == 2 * 4 * stats.checkpoints_taken

    def test_unaligned_period_is_kept_as_given(self):
        runner = DistributedStencilRunner(
            _grid_2d(BoundaryCondition.periodic()),
            n_ranks=2,
            protect=False,
            checkpoint_period=6,
        )
        assert runner.checkpoint_period == 6
        runner.run(20)
        assert runner.recovery.checkpoints_taken == 1 + 20 // 6

    def test_checkpointed_periodic_run_stays_exact(self):
        bc = BoundaryCondition.periodic()
        baseline = DistributedStencilRunner(
            _grid_2d(bc), n_ranks=2, protect=False
        )
        baseline.run(24)
        ckpt = DistributedStencilRunner(
            _grid_2d(bc), n_ranks=2, protect=False, checkpoint_period=8
        )
        ckpt.run(24)
        assert ckpt.recovery.checkpoints_taken == 1 + 24 // 8
        np.testing.assert_array_equal(baseline.gather(), ckpt.gather())

    def test_enable_checkpointing_idempotent_and_single_rank_rejected(self):
        runner = DistributedStencilRunner(
            _grid_2d(), n_ranks=2, checkpoint_period=4
        )
        taken = runner.recovery.checkpoints_taken
        assert taken == 1
        runner.enable_checkpointing()
        assert runner.recovery.checkpoints_taken == taken
        assert runner.checkpoint_period == 4
        solo = DistributedStencilRunner(_grid_2d(), n_ranks=1)
        with pytest.raises(RecoveryError, match="no partner"):
            solo.enable_checkpointing()
        with pytest.raises(RecoveryError, match="no partner"):
            DistributedStencilRunner(_grid_2d(), n_ranks=1, checkpoint_period=4)

    def test_corrupt_metadata_is_repaired(self):
        runner = DistributedStencilRunner(
            _grid_2d(), n_ranks=4, checkpoint_period=4
        )
        inject = _crash_injector(runner, 3, 2)
        # Strike the buddy copy's checksum duplicate: the PR 8 self-check
        # rule blames the metadata, recomputes it from the healthy domain
        # and recovery proceeds.  Crash at 3 so the struck iteration-0
        # checkpoint is the one recovery actually reads.
        buddy = runner.buddy_of[2]
        runner.ranks[buddy].buddy_store[2].checksum_dup[0] += 1.0
        runner.run(10, inject=inject)
        assert runner.recovery.ranks_rebuilt == 1
        assert runner.recovery.checkpoint_metadata_repairs >= 1

    def test_corrupt_payload_refuses_restore(self):
        runner = DistributedStencilRunner(
            _grid_2d(), n_ranks=4, checkpoint_period=4
        )
        inject = _crash_injector(runner, 3, 2)
        buddy = runner.buddy_of[2]
        # Self-consistent checksums that contradict the domain payload:
        # the payload itself was struck, restoring would resurrect it.
        runner.ranks[buddy].buddy_store[2].interior[0, 0] += 1.0
        with pytest.raises(CheckpointCorrupt, match="refusing to restore"):
            runner.run(10, inject=inject)

    def test_crash_auto_enables_checkpointing(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=4)
        inject = _crash_injector(runner, 5, 1)
        runner.run(12, inject=inject)
        assert runner.recovery.checkpoints_taken >= 1
        assert runner.recovery.ranks_rebuilt == 1

    def test_crash_injector_rejects_single_rank(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=1)
        with pytest.raises(ValueError, match="no buddy checkpoint"):
            DistributedFaultInjector(runner, [[_crash_plan(3, 0)]])

    def test_crash_and_payload_plans_combine(self):
        # Rank 1's strip to rank 0 is struck at iteration 6, inside the
        # window a crash at 7 rolls back to the checkpoint at 4: the
        # strike fires again on replay and the CRC catches it both times.
        clean = DistributedStencilRunner(_grid_2d(), n_ranks=2)
        clean.run(10)
        runner = DistributedStencilRunner(
            _grid_2d(), n_ranks=2, checkpoint_period=4
        )
        payload = FaultPlan(
            iteration=6, index=(5,), bit=30, target="payload", side=0
        )
        inject = DistributedFaultInjector(
            runner, [[_crash_plan(7, 0)], [payload]]
        )
        runner.run(10, inject=inject)
        assert runner.recovery.ranks_rebuilt == 1
        assert runner.channel.messages_corrupted == 2
        assert runner.channel.messages_retransmitted == 2
        np.testing.assert_array_equal(runner.gather(), clean.gather())


# ---------------------------------------------------------------------------
# Recovery exactness
# ---------------------------------------------------------------------------
_BOUNDARIES = {
    "clamp": BoundaryCondition.clamp,
    "periodic": BoundaryCondition.periodic,
    "zero": BoundaryCondition.zero,
}


class TestRecoveryBitIdentity:
    @given(
        ndim=st.sampled_from([2, 3]),
        bc_kind=st.sampled_from(sorted(_BOUNDARIES)),
        protect=st.booleans(),
        timing=st.sampled_from(["start", "mid", "boundary"]),
        n_ranks=st.sampled_from([2, 3]),
    )
    def test_recovered_run_matches_failure_free(
        self, ndim, bc_kind, protect, timing, n_ranks
    ):
        bc = _BOUNDARIES[bc_kind]()
        make_grid = _grid_2d if ndim == 2 else _grid_3d
        iters = 20
        crash_iter = {"start": 1, "mid": 10, "boundary": DETECTION_PERIOD}[
            timing
        ]
        victim = n_ranks - 1

        baseline = DistributedStencilRunner(
            make_grid(bc), n_ranks=n_ranks, protect=protect
        )
        baseline.run(iters)

        crashed = DistributedStencilRunner(
            make_grid(bc), n_ranks=n_ranks, protect=protect
        )
        inject = _crash_injector(crashed, crash_iter, victim)
        crashed.run(iters, inject=inject)

        assert crashed.recovery.ranks_rebuilt >= 1
        assert crashed.iteration == baseline.iteration
        np.testing.assert_array_equal(baseline.gather(), crashed.gather())
        if protect:
            assert crashed.total_detected() == baseline.total_detected()
            assert crashed.total_corrected() == baseline.total_corrected()

    def test_sdc_inside_replay_window_and_on_rebuilt_rank(self):
        # Flips at iteration 10 (inside the replayed window of a crash at
        # 13) and at iteration 20 (striking the *rebuilt* rank after
        # recovery) must be detected/corrected exactly as in a run that
        # never crashed — counters and final state bitwise-equal.
        flips = [
            (1, FaultPlan(iteration=10, index=(2, 3), bit=20)),
            (2, FaultPlan(iteration=20, index=(1, 5), bit=21)),
        ]

        def build(with_crash: bool):
            runner = DistributedStencilRunner(
                _grid_2d(shape=(24, 16)), n_ranks=4, protect=True
            )
            per_rank = [[] for _ in range(4)]
            for r, plan in flips:
                per_rank[r].append(
                    FaultPlan(
                        iteration=plan.iteration, index=plan.index,
                        bit=plan.bit,
                    )
                )
            if with_crash:
                per_rank[2].append(_crash_plan(13, 2))
            return runner, DistributedFaultInjector(runner, per_rank)

        baseline, base_inject = build(with_crash=False)
        baseline.run(28, inject=base_inject)
        crashed, crash_inject = build(with_crash=True)
        crashed.run(28, inject=crash_inject)

        assert crashed.recovery.ranks_rebuilt == 1
        assert crashed.recovery.rollbacks >= 1
        np.testing.assert_array_equal(baseline.gather(), crashed.gather())
        assert crashed.total_detected() == baseline.total_detected()
        assert crashed.total_corrected() == baseline.total_corrected()
        assert baseline.total_detected() >= 2

    def test_recovery_accounting_fields(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=4)
        inject = _crash_injector(runner, 13, 2)
        runner.run(30, inject=inject)
        stats = dataclasses.asdict(runner.recovery)
        assert stats["rank_failures"] == 1
        assert stats["ranks_rebuilt"] == 1
        assert stats["rollbacks"] == 1
        assert stats["replayed_iterations"] == 12
        assert stats["max_rollback_depth"] == 12
        assert stats["checkpoint_bytes"] > 0
        assert stats["recovery_seconds"] > 0.0

    def test_uncheckpointed_failure_is_a_recovery_error(self):
        runner = DistributedStencilRunner(_grid_2d(), n_ranks=2)
        runner.channel.mark_failed(1)
        with pytest.raises(RecoveryError, match="never[\\s\\S]*enabled"):
            runner.step()

    def test_buddy_also_dead_is_unrecoverable(self):
        runner = DistributedStencilRunner(
            _grid_2d(), n_ranks=4, checkpoint_period=8
        )
        for r in (1, 2):  # rank 2 is rank 1's buddy
            runner.channel.mark_failed(r)
        with pytest.raises(RecoveryError, match="both failed"):
            runner.step()

    @pytest.mark.parametrize("victim", range(4))
    def test_heartbeat_alone_detects_a_crash(self, victim):
        # Radius 0 along the distributed axis: no halo message ever
        # travels, so no receive can notice the dead rank.
        spec = StencilSpec.from_dict({(0, 0): 0.6, (0, -1): 0.2, (0, 1): 0.2})
        u0 = _grid_2d().u

        def build(with_crash: bool):
            runner = DistributedStencilRunner(
                Grid2D(u0.copy(), spec, BoundaryCondition.clamp()),
                n_ranks=4, protect=True, checkpoint_period=8,
            )
            per_rank = [[] for _ in range(4)]
            per_rank[(victim + 1) % 4].append(
                FaultPlan(iteration=17, index=(1, 5), bit=24)
            )
            if with_crash:
                per_rank[victim].append(_crash_plan(19, victim))
            return runner, DistributedFaultInjector(runner, per_rank)

        baseline, base_inject = build(with_crash=False)
        baseline.run(24, inject=base_inject)
        crashed, crash_inject = build(with_crash=True)
        crashed.run(24, inject=crash_inject)

        assert crashed.halo_width == 0
        assert set(crashed.channel.messages_by_tag) == {CKPT_TAG, CKPT_META_TAG}
        assert crashed.recovery.ranks_rebuilt == 1
        assert crashed.recovery.replayed_iterations == 18 - 16
        np.testing.assert_array_equal(baseline.gather(), crashed.gather())
        assert crashed.total_detected() == baseline.total_detected() >= 1
        assert crashed.total_corrected() == baseline.total_corrected()


class _ScrubbingInjector(DistributedFaultInjector):
    """Delivers crashes, then overwrites every victim's state with garbage.

    Front and back buffers, both stored-checksum copies and the interiors
    of every checkpoint the victim holds become NaN, and its counters
    jump by 1000.  A run that still ends like the failure-free one read
    none of it: recovery restored the rank from its buddy's copy alone.
    """

    def apply_crashes(self, runner, iteration: int) -> None:
        before = runner.channel.failed_ranks
        super().apply_crashes(runner, iteration)
        for r in runner.channel.failed_ranks - before:
            rank = runner.ranks[r]
            rank.buffers.front[...] = np.nan
            rank.buffers.back[...] = np.nan
            protector = rank.protector
            for stored in (protector._prev_cs, protector._prev_cs_dup):
                for cs in stored.values():
                    if cs is not None:
                        cs[...] = np.nan
            protector.total_detections += 1000
            protector.total_corrections += 1000
            protector.total_uncorrected += 1000
            protector.total_metadata_repairs += 1000
            for ckpt in (rank.own_checkpoint, *rank.buddy_store.values()):
                ckpt.interior[...] = np.nan


def _counters(runner):
    return [
        (
            rank.protector.total_detections,
            rank.protector.total_corrections,
            rank.protector.total_uncorrected,
            rank.protector.total_metadata_repairs,
        )
        for rank in runner.ranks
    ]


class TestRecoveryReadsNothingOfTheDeadRank:
    @pytest.mark.parametrize("victim", range(4))
    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize(
        "make_grid",
        [
            _grid_2d,
            lambda: _grid_2d(BoundaryCondition.periodic()),
            _grid_3d,
        ],
        ids=["2d-clamp", "2d-periodic", "3d-clamp"],
    )
    def test_recovered_run_matches_failure_free(self, make_grid, eager, victim):
        # The flip strikes the victim inside the window the crash at 7
        # rolls back to the checkpoint at 4, so it fires again on the
        # restored rank.
        flip = FaultPlan(
            iteration=6, index=(1, 3) + (2,) * (make_grid().ndim - 2), bit=21
        )

        def build(injector):
            runner = DistributedStencilRunner(
                make_grid(), n_ranks=4, checkpoint_period=4,
                eager_row_checksum=eager,
            )
            per_rank = [[] for _ in range(4)]
            per_rank[victim].append(flip)
            if injector is _ScrubbingInjector:
                per_rank[victim].append(_crash_plan(7, victim))
            return runner, injector(runner, per_rank)

        baseline, base_inject = build(DistributedFaultInjector)
        baseline.run(12, inject=base_inject)
        crashed, crash_inject = build(_ScrubbingInjector)
        crashed.run(12, inject=crash_inject)

        assert crashed.recovery.ranks_rebuilt == 1
        np.testing.assert_array_equal(baseline.gather(), crashed.gather())
        assert crashed.total_detected() == baseline.total_detected() >= 1
        assert crashed.total_corrected() == baseline.total_corrected()
        assert _counters(crashed) == _counters(baseline)


# ---------------------------------------------------------------------------
# Campaign integration
# ---------------------------------------------------------------------------
class TestCampaignCrash:
    def _factories(self):
        u0 = (
            np.random.default_rng(9).random((24, 16)) * 100.0
        ).astype(np.float32)

        def grid_factory():
            return Grid2D(
                u0.copy(), five_point_diffusion(0.2), BoundaryCondition.clamp()
            )

        return grid_factory, lambda g: OnlineABFT.for_grid(g)

    def test_legacy_loop_routes_crash_runs(self):
        from repro.faults.campaign import CampaignConfig, run_campaign

        gf, pf = self._factories()
        model = make_fault_model(
            "rank-crash", at_iteration=9, rank=1, n_ranks=4
        )
        config = CampaignConfig(
            iterations=24, repetitions=2, seed=5, fault_model=model
        )
        result = run_campaign(gf, pf, config)
        for record in result.records:
            assert record.arithmetic_error == 0.0
            assert record.ranks_rebuilt == 1
            assert record.rollbacks >= 1
            assert record.checkpoint_bytes > 0
            assert record.fault is not None
            assert record.fault.target == "crash"

    def test_engine_matches_legacy_bitwise(self):
        from repro.faults.campaign import CampaignConfig, run_campaign
        from repro.faults.engine import CampaignEngine

        gf, pf = self._factories()
        model = make_fault_model(
            "rank-crash", at_iteration=9, rank=1, n_ranks=4, bitflips=1
        )
        config = CampaignConfig(
            iterations=24, repetitions=3, seed=5, fault_model=model
        )
        legacy = run_campaign(gf, pf, config)
        with CampaignEngine(executor="serial") as engine:
            fast = engine.run(gf, pf, config)
        assert fast.fallback_reasons() == ["non-domain fault target"]
        for a, b in zip(legacy.records, fast.records):
            assert a.arithmetic_error == b.arithmetic_error
            assert a.errors_detected == b.errors_detected
            assert a.errors_corrected == b.errors_corrected
            assert a.errors_uncorrected == b.errors_uncorrected
            assert a.rollbacks == b.rollbacks
            assert a.recomputed_iterations == b.recomputed_iterations
            assert a.ranks_rebuilt == b.ranks_rebuilt
            assert a.checkpoint_bytes == b.checkpoint_bytes

    def test_run_with_crashes_rejects_unknown_protector(self):
        from repro.faults.campaign import run_with_crashes

        gf, _ = self._factories()
        grid = gf()

        class Oddball:
            name = "oddball"

        with pytest.raises(ValueError, match="oddball"):
            run_with_crashes(
                grid, Oddball(), [_crash_plan(3, 0)], 8, RankCrash(n_ranks=2)
            )

    def test_crash_run_ranks_keep_the_protector_settings(self):
        from repro.faults.campaign import run_with_crashes
        from repro.parallel.simmpi import _ABFT_KWARGS

        gf, _ = self._factories()
        grid = gf()
        protector = OnlineABFT.for_grid(
            grid, epsilon=1e-3, eager_row_checksum=True, correction_strategy="row"
        )
        _, runner = run_with_crashes(
            grid, protector, [_crash_plan(5, 1)], 8, RankCrash(n_ranks=2)
        )
        assert runner.recovery.ranks_rebuilt == 1
        for rank in runner.ranks:
            for name in _ABFT_KWARGS:
                assert getattr(rank.protector, name) == getattr(protector, name)
        assert runner.ranks[1].protector.epsilon == 1e-3

    def test_run_with_crashes_unprotected(self):
        from repro.faults.campaign import run_with_crashes

        gf, _ = self._factories()
        reference = gf()
        reference.run(16)
        elapsed, runner = run_with_crashes(
            gf(),
            NoProtection(),
            [_crash_plan(7, 1)],
            16,
            RankCrash(at_iteration=7, rank=1, n_ranks=4),
        )
        assert elapsed >= 0.0
        stats = runner.recovery
        assert (runner.total_detected(), runner.total_corrected()) == (0, 0)
        assert all(rank.protector is None for rank in runner.ranks)
        assert stats.rollbacks >= 1 and stats.ranks_rebuilt == 1
        assert stats.checkpoint_bytes > 0
        np.testing.assert_array_equal(reference.u, runner.gather())

    def test_run_with_crashes_times_with_the_collector_paused(self, monkeypatch):
        """The crash run is timed with the garbage collector paused, as
        ``timeit`` times, and the collector is enabled again after."""
        import gc

        from repro.faults.campaign import run_with_crashes

        seen = []
        run = DistributedStencilRunner.run

        def spy(runner, *args, **kwargs):
            seen.append(gc.isenabled())
            return run(runner, *args, **kwargs)

        monkeypatch.setattr(DistributedStencilRunner, "run", spy)
        gf, _ = self._factories()
        assert gc.isenabled()
        run_with_crashes(
            gf(), NoProtection(), [_crash_plan(7, 1)], 16,
            RankCrash(at_iteration=7, rank=1, n_ranks=4),
        )
        assert seen == [False] and gc.isenabled()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestRecoveryCLI:
    def test_distributed_crash_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "distributed", "--ranks", "4", "--iters", "20", "--size",
                "48", "--crash-rank", "2", "--crash-iter", "9",
                "--checkpoint-period", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpointing   : period 5" in out
        assert "recovery        : 1 rank failure, 1 rebuilt from buddy" in out

    def test_distributed_crash_defaults(self, capsys):
        from repro.cli import main

        code = main(
            ["distributed", "--ranks", "2", "--iters", "12", "--size", "32",
             "--crash-iter", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rebuilt from buddy" in out

    def test_single_rank_checkpointing_refused(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(
                ["distributed", "--ranks", "1", "--iters", "8", "--size",
                 "16", "--checkpoint-period", "4"]
            )
        assert exc.value.code == 2
        (line,) = [
            l for l in capsys.readouterr().err.splitlines() if "error:" in l
        ]
        assert "n_ranks >= 2" in line

    def test_campaign_rank_crash(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign", "--tile", "16", "16", "4", "--iterations", "12",
                "--repetitions", "2", "--fault-model", "rank-crash",
                "--crash-ranks", "2", "--crash-rank", "1", "--crash-iter",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "model rank-crash" in out
        assert "recovery : 2/2 runs lost a rank" in out
