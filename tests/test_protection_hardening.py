"""Hardening of the protection paths against corrupted checksum metadata.

The ABFT protectors trust their *stored* checksum vectors (the online
protector's previous-iteration checksum, the offline protector's
checkpoint checksum).  A bit flip striking that metadata instead of the
domain must not make a protector "correct" healthy data or roll back a
healthy run: the duplicated-checksum self-check detects the mismatch
between the primary copy and its independently stored duplicate, falls
back to recomputing the checksum from the (still healthy) data, and
counts the repair.  These tests pin the rule in all four settings —
online and offline, serial and distributed — and prove it has teeth by
showing the bogus detections that occur once a test patches the rule
out (the protectors have no switch for it).
"""

import numpy as np
import pytest

from repro.checkpoint.snapshot import Snapshot
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.models import DistributedFaultInjector
from repro.parallel.simmpi import DistributedStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion

#: A high exponent-field bit of the stored float64 checksum: flipping it
#: perturbs the vector far beyond any detection epsilon, so an
#: unhardened protector is guaranteed to misread it as a domain error.
HIGH_BIT = 62


def _make_grid(rng, shape=(24, 20)):
    u0 = (rng.random(shape) * 100).astype(np.float32)
    return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())


def _trust_stored_checksums(monkeypatch):
    """Switch the online duplicate rule off: use the stored copy as is."""
    monkeypatch.setattr(
        OnlineABFT, "_checked_prev_cs", lambda self, axis, prev_u: self._prev_cs[axis]
    )


def _checksum_plan(iteration, index=(5,), bit=HIGH_BIT):
    """A flip of the stored column checksum (axis 0), the verified one."""
    return FaultPlan(
        iteration=iteration, index=index, bit=bit, target="checksum", axis=0
    )


class TestOnlineSerial:
    def test_corrupted_stored_checksum_never_corrupts_healthy_data(self, rng):
        grid = _make_grid(rng)
        clean = grid.copy()
        clean_protector = OnlineABFT.for_grid(clean, epsilon=1e-5)
        clean_protector.run(clean, 16)

        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        hook = FaultInjector([_checksum_plan(6)], protector)
        run = protector.run(grid, 16, inject=hook)

        assert hook.fired_count == 1
        assert protector.total_metadata_repairs == 1
        assert run.total_detected == 0
        assert run.total_corrected == 0
        np.testing.assert_array_equal(grid.u, clean.u)

    def test_self_check_has_teeth(self, rng, monkeypatch):
        """Disabled, the same corruption is misread as a domain error."""
        grid = _make_grid(rng)
        clean = grid.copy()
        OnlineABFT.for_grid(clean, epsilon=1e-5).run(clean, 16)

        _trust_stored_checksums(monkeypatch)
        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        hook = FaultInjector([_checksum_plan(6)], protector)
        run = protector.run(grid, 16, inject=hook)

        assert protector.total_metadata_repairs == 0
        # Bogus alarm: the domain was healthy, yet the protector flags an
        # error (and, depending on the mismatch pattern, wastes a
        # correction attempt or reports it uncorrectable).
        assert run.total_detected >= 1

    def test_every_element_and_axis_repairs_cleanly(self, rng):
        grid0 = _make_grid(rng, shape=(12, 10))
        clean = grid0.copy()
        OnlineABFT.for_grid(clean, epsilon=1e-5).run(clean, 10)
        cs_len = grid0.shape[1]
        for j in range(0, cs_len, 3):
            grid = grid0.copy()
            protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
            hook = FaultInjector(
                [_checksum_plan(4, index=(j,))], protector
            )
            run = protector.run(grid, 10, inject=hook)
            assert run.total_detected == 0
            assert protector.total_metadata_repairs == 1
            np.testing.assert_array_equal(grid.u, clean.u)

    def test_reset_clears_repair_counter(self, rng):
        grid = _make_grid(rng)
        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        hook = FaultInjector([_checksum_plan(3)], protector)
        protector.run(grid, 6, inject=hook)
        assert protector.total_metadata_repairs == 1
        protector.reset()
        assert protector.total_metadata_repairs == 0


class TestOfflineSerial:
    def test_corrupted_checkpoint_checksum_causes_no_rollback(self, rng):
        grid = _make_grid(rng)
        clean = grid.copy()
        OfflineABFT.for_grid(clean, period=4, epsilon=1e-5).run(clean, 16)

        protector = OfflineABFT.for_grid(grid, period=4, epsilon=1e-5)
        hook = FaultInjector([_checksum_plan(6)], protector)
        run = protector.run(grid, 16, inject=hook)

        assert hook.fired_count == 1
        assert protector.total_metadata_repairs >= 1
        assert run.total_rollbacks == 0
        assert run.total_detected == 0
        np.testing.assert_array_equal(grid.u, clean.u)

    def test_self_check_has_teeth(self, rng, monkeypatch):
        """Disabled, the corruption triggers a pointless rollback."""
        grid = _make_grid(rng)
        # The duplicate rule never repairs: the stored checksum is trusted.
        monkeypatch.setattr(Snapshot, "verify", lambda self, *args, **kwargs: False)
        protector = OfflineABFT.for_grid(grid, period=4, epsilon=1e-5)
        hook = FaultInjector([_checksum_plan(6)], protector)
        run = protector.run(grid, 16, inject=hook)
        assert protector.total_metadata_repairs == 0
        assert run.total_detected >= 1
        assert run.total_rollbacks >= 1

    def test_combined_domain_and_checksum_faults(self, rng):
        """A real fault is still handled while metadata is under attack."""
        grid = _make_grid(rng)
        protector = OfflineABFT.for_grid(grid, period=4, epsilon=1e-5)
        plans = [
            FaultPlan(iteration=6, index=(7, 7), bit=27),
            _checksum_plan(7),
        ]
        run = protector.run(grid, 16, inject=FaultInjector(plans, protector))
        assert run.total_detected >= 1  # the genuine domain fault
        assert protector.total_metadata_repairs >= 1


class TestNonFiniteFlips:
    """Bit 30 of a float32 in [1, 2) turns the value into NaN, whose
    checksum entries' relative errors are NaN.  Both protectors detect
    it, and the NaN checksum and its NaN copy agree, so no metadata
    repair is counted."""

    ITERATIONS = 12

    @staticmethod
    def _run(protector_factory):
        u0 = (1 + np.random.default_rng(0).random((32, 32))).astype(np.float32)
        grid = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
        clean = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
        clean.run(TestNonFiniteFlips.ITERATIONS)
        protector = protector_factory(grid)
        plans = [FaultPlan(3, (5, 5), bit=30)]
        protector.run(
            grid, TestNonFiniteFlips.ITERATIONS,
            inject=FaultInjector(plans, protector),
        )
        return grid, clean, protector

    def test_online_detects_and_leaves_the_nan_uncorrected(self):
        grid, _, protector = self._run(OnlineABFT.for_grid)
        # Eq. 10 has no finite estimate for a NaN: every flag stays
        # uncorrected, and the NaN spreads.
        assert (
            protector.total_detections, protector.total_corrections,
            protector.total_uncorrected, protector.total_metadata_repairs,
        ) == (90, 0, 90, 0)
        assert not np.isfinite(grid.u).all()

    def test_offline_rolls_back_to_the_fault_free_run(self):
        grid, clean, protector = self._run(
            lambda g: OfflineABFT.for_grid(g, period=4)
        )
        assert (
            protector.total_detections, protector.total_rollbacks,
            protector.total_metadata_repairs,
        ) == (3, 1, 0)
        assert grid.u.tobytes() == clean.u.tobytes()


class TestDistributed:
    def _runners(self, rng):
        grid = _make_grid(rng)
        clean = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5
        )
        clean.run(12)
        runner = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5
        )
        return clean, runner

    def _rank_checksum_plans(self, runner, victim=1, iteration=5):
        plans = [[] for _ in runner.ranks]
        cs_len = runner.ranks[victim].shape[1]
        plans[victim] = [_checksum_plan(iteration, index=(cs_len // 2,))]
        return plans

    def test_rank_checksum_corruption_repairs_without_miscorrection(self, rng):
        clean, runner = self._runners(rng)
        inject = DistributedFaultInjector(
            runner, self._rank_checksum_plans(runner)
        )
        runner.run(12, inject=inject)
        assert inject.fired_count == 1
        victim = runner.ranks[1].protector
        assert victim.total_metadata_repairs == 1
        assert runner.total_detected() == 0
        assert runner.total_corrected() == 0
        np.testing.assert_array_equal(runner.gather(), clean.gather())

    def test_self_check_has_teeth_distributed(self, rng, monkeypatch):
        clean, runner = self._runners(rng)
        _trust_stored_checksums(monkeypatch)
        inject = DistributedFaultInjector(
            runner, self._rank_checksum_plans(runner)
        )
        runner.run(12, inject=inject)
        assert runner.ranks[1].protector.total_metadata_repairs == 0
        assert runner.total_detected() >= 1  # bogus detection

    def test_unprotected_rank_rejects_checksum_plans(self, rng):
        # Refused when the injector is built, not at the plan's iteration.
        grid = _make_grid(rng)
        runner = DistributedStencilRunner(grid, n_ranks=2, protect=False)
        plan = FaultPlan(
            iteration=2, index=(0,), bit=HIGH_BIT, target="checksum"
        )
        with pytest.raises(ValueError, match="rank 1 is unprotected") as exc:
            DistributedFaultInjector(runner, [[], [plan]])
        assert repr(plan) in str(exc.value)
