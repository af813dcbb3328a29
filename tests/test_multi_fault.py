"""Behaviour under multiple silent errors.

Theorem 2 guarantees *detection* as long as errors do not cancel in the
checksums; localisation/correction of several simultaneous errors is only
possible when the row/column mismatch pattern pairs up. These tests pin
down both behaviours, plus the multi-fault campaign support.
"""

import numpy as np
import pytest

from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.models import SingleBitFlip
from repro.metrics.accuracy import l2_error
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion


def _make_grid(rng, shape=(24, 20)):
    u0 = (rng.random(shape) * 100).astype(np.float32)
    return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())


class TestMultipleErrorsOnline:
    def test_two_errors_in_same_iteration_distinct_rows_and_columns(self, rng):
        grid = _make_grid(rng)
        ref = grid.copy()
        ref.run(20)
        plans = [
            FaultPlan(iteration=9, index=(3, 4), bit=26),
            FaultPlan(iteration=9, index=(15, 12), bit=25),
        ]
        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = protector.run(grid, 20, inject=FaultInjector(plans))
        assert run.total_detected >= 2
        assert run.total_corrected >= 2
        assert l2_error(ref.u, grid.u) < 1.0

    def test_two_errors_in_same_column_detected_even_if_not_correctable(self, rng):
        # Both corruptions land in the same column: the column checksum
        # flags one entry, the row checksum flags two - the pattern cannot
        # always be resolved, but it must never go unnoticed.
        grid = _make_grid(rng)
        plans = [
            FaultPlan(iteration=7, index=(3, 10), bit=26),
            FaultPlan(iteration=7, index=(15, 10), bit=26),
        ]
        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = protector.run(grid, 14, inject=FaultInjector(plans))
        assert run.total_detected >= 1

    def test_errors_in_consecutive_iterations_both_corrected(self, rng):
        grid = _make_grid(rng)
        ref = grid.copy()
        ref.run(20)
        plans = [
            FaultPlan(iteration=5, index=(6, 6), bit=27),
            FaultPlan(iteration=6, index=(12, 3), bit=27),
        ]
        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = protector.run(grid, 20, inject=FaultInjector(plans))
        assert run.total_corrected >= 2
        assert l2_error(ref.u, grid.u) < 1.0


class TestMultipleErrorsOffline:
    def test_several_faults_in_one_window_erased_by_one_rollback(self, rng):
        grid = _make_grid(rng)
        ref = grid.copy()
        ref.run(24)
        plans = [
            FaultPlan(iteration=10, index=(4, 4), bit=27),
            FaultPlan(iteration=12, index=(18, 15), bit=28),
            FaultPlan(iteration=14, index=(9, 2), bit=26),
        ]
        protector = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        run = protector.run(grid, 24, inject=FaultInjector(plans))
        assert run.total_detected >= 1
        assert run.total_rollbacks == 1  # all three land in the same window
        assert l2_error(ref.u, grid.u) == pytest.approx(0.0, abs=1e-12)

    def test_faults_in_different_windows_need_separate_rollbacks(self, rng):
        grid = _make_grid(rng)
        ref = grid.copy()
        ref.run(24)
        plans = [
            FaultPlan(iteration=3, index=(4, 4), bit=27),
            FaultPlan(iteration=20, index=(18, 15), bit=27),
        ]
        protector = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        run = protector.run(grid, 24, inject=FaultInjector(plans))
        assert run.total_rollbacks == 2
        assert l2_error(ref.u, grid.u) == pytest.approx(0.0, abs=1e-12)


class TestMultiFaultCampaign:
    def test_faults_per_run_draws_that_many_plans(self):
        rng = np.random.default_rng(0)
        u0 = (rng.random((16, 12)) * 100).astype(np.float32)

        def factory():
            return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())

        config = CampaignConfig(
            iterations=10, repetitions=3, inject=True, seed=5,
            fault_model=SingleBitFlip(faults_per_run=3),
        )
        result = run_campaign(
            factory, lambda g: OnlineABFT.for_grid(g, epsilon=1e-5), config
        )
        assert all(len(r.faults) == 3 for r in result.records)
        assert all(r.fault is r.faults[0] for r in result.records)

    def test_invalid_faults_per_run(self):
        with pytest.raises(ValueError):
            CampaignConfig(
                iterations=5, repetitions=1,
                fault_model=SingleBitFlip(faults_per_run=0),
            )
