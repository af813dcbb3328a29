"""Unit tests for fault plans and the fault injector."""

import numpy as np
import pytest

from repro.faults.injector import (
    FaultInjector,
    FaultPlan,
    random_fault_plan,
    validate_plan_index,
)


class TestFaultPlan:
    def test_basic(self):
        plan = FaultPlan(iteration=3, index=(1, 2), bit=17)
        assert plan.iteration == 3
        assert plan.index == (1, 2)
        assert plan.bit == 17

    def test_coercion(self):
        plan = FaultPlan(iteration=np.int64(2), index=(np.int64(0), np.int64(1)), bit=np.int64(5))
        assert isinstance(plan.iteration, int)
        assert all(isinstance(i, int) for i in plan.index)

    def test_iteration_must_be_positive(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(iteration=0, index=(0, 0), bit=3)

    def test_negative_bit_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(iteration=1, index=(0, 0), bit=-1)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultPlan(iteration=1, index=(0, 0), bit=3, target="cache")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="action"):
            FaultPlan(iteration=1, index=(0,), bit=3, target="payload",
                      action="scramble")

    def test_defaults_are_the_legacy_domain_flip(self):
        plan = FaultPlan(iteration=1, index=(0, 0), bit=3)
        assert plan.target == "domain"
        assert plan.action == "corrupt"
        assert (plan.axis, plan.side) == (0, 0)


class TestValidatePlanIndex:
    def test_in_range_passes(self):
        validate_plan_index(FaultPlan(iteration=1, index=(7, 5), bit=0), (8, 6))

    def test_out_of_range_names_axis_and_extent(self):
        plan = FaultPlan(iteration=4, index=(3, 6), bit=0)
        with pytest.raises(ValueError) as exc:
            validate_plan_index(plan, (8, 6))
        msg = str(exc.value)
        assert "iteration=4" in msg
        assert "axis 1" in msg
        assert "[0, 6)" in msg

    def test_dimension_mismatch_keeps_legacy_phrasing(self):
        plan = FaultPlan(iteration=1, index=(1, 1, 1), bit=0)
        with pytest.raises(ValueError, match="dimensionality"):
            validate_plan_index(plan, (8, 6))

    def test_injector_validates_against_grid_shape(self, small_grid_2d):
        shape = small_grid_2d.shape
        bad = FaultPlan(iteration=1, index=(shape[0], 0), bit=3)
        injector = FaultInjector([bad])
        small_grid_2d.step()
        with pytest.raises(ValueError, match="out of range"):
            injector(small_grid_2d, 1)

    def test_injector_refuses_non_domain_plans(self):
        plan = FaultPlan(iteration=1, index=(0,), bit=3, target="checksum")
        with pytest.raises(ValueError, match="DistributedFaultInjector"):
            FaultInjector([plan])


class TestRandomFaultPlan:
    def test_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            plan = random_fault_plan(rng, (8, 6, 4), iterations=20, dtype=np.float32)
            assert 1 <= plan.iteration <= 20
            assert 0 <= plan.index[0] < 8
            assert 0 <= plan.index[1] < 6
            assert 0 <= plan.index[2] < 4
            assert 0 <= plan.bit < 32

    def test_pinned_bit(self):
        rng = np.random.default_rng(1)
        plan = random_fault_plan(rng, (4, 4), iterations=10, bit=29)
        assert plan.bit == 29

    def test_float64_bit_range(self):
        rng = np.random.default_rng(2)
        bits = {
            random_fault_plan(rng, (4, 4), 5, dtype=np.float64).bit for _ in range(200)
        }
        assert max(bits) > 31  # draws from the full 64-bit range

    def test_reproducible_with_same_seed(self):
        a = random_fault_plan(np.random.default_rng(7), (10, 10), 50)
        b = random_fault_plan(np.random.default_rng(7), (10, 10), 50)
        assert a == b

    def test_requires_iterations(self):
        with pytest.raises(ValueError):
            random_fault_plan(np.random.default_rng(0), (4, 4), 0)


class TestFaultInjector:
    def test_fires_exactly_once_at_target_iteration(self, small_grid_2d):
        plan = FaultPlan(iteration=3, index=(4, 4), bit=30)
        injector = FaultInjector([plan])
        for _ in range(5):
            small_grid_2d.step()
            swept = small_grid_2d.u[4, 4]
            injector(small_grid_2d, small_grid_2d.iteration)
            struck = small_grid_2d.u[4, 4] != swept
            assert struck == (small_grid_2d.iteration == 3)
        assert injector.fired_count == 1

    def test_single_plan_can_be_passed_directly(self, small_grid_2d):
        injector = FaultInjector(FaultPlan(iteration=1, index=(0, 0), bit=30))
        small_grid_2d.step()
        injector(small_grid_2d, 1)
        assert injector.fired_count == 1

    def test_does_not_fire_on_other_iterations(self, small_grid_2d):
        injector = FaultInjector([FaultPlan(iteration=99, index=(0, 0), bit=3)])
        small_grid_2d.step()
        injector(small_grid_2d, small_grid_2d.iteration)
        assert injector.fired_count == 0

    def test_does_not_refire_on_recomputation(self, small_grid_2d):
        # Rollback recovery replays iterations; a transient fault must not
        # strike again.
        injector = FaultInjector([FaultPlan(iteration=2, index=(1, 1), bit=27)])
        small_grid_2d.step()
        small_grid_2d.step()
        injector(small_grid_2d, 2)
        value_after_first = small_grid_2d.u[1, 1]
        injector(small_grid_2d, 2)  # replay of iteration 2
        assert small_grid_2d.u[1, 1] == value_after_first
        assert injector.fired_count == 1

    def test_dimension_mismatch_rejected(self, small_grid_2d):
        injector = FaultInjector([FaultPlan(iteration=1, index=(1, 1, 1), bit=3)])
        small_grid_2d.step()
        with pytest.raises(ValueError, match="dimensionality"):
            injector(small_grid_2d, 1)
