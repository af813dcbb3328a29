"""Unit tests for the protector interface, reports and NoProtection."""

import numpy as np
import pytest

from repro.core.protector import NoProtection, RunReport, StepReport
from repro.faults.injector import FaultInjector, FaultPlan
from repro.stencil.sweep import sweep


class TestStepReport:
    def test_defaults(self):
        report = StepReport(iteration=3)
        assert report.clean
        assert report.errors_detected == 0
        assert not report.rollback
        assert report.corrections == []

    def test_clean_flag(self):
        assert not StepReport(iteration=1, errors_detected=2).clean


class TestRunReport:
    def test_aggregation(self):
        run = RunReport()
        run.add(StepReport(iteration=1))
        run.add(StepReport(iteration=2, errors_detected=2, errors_corrected=1,
                           errors_uncorrected=1))
        run.add(StepReport(iteration=3, rollback=True, recomputed_iterations=8))
        assert run.iterations == 3
        assert run.total_detected == 2
        assert run.total_corrected == 1
        assert run.total_uncorrected == 1
        assert run.total_rollbacks == 1
        assert run.total_recomputed_iterations == 8
        assert len(run.detections) == 1

    def test_empty(self):
        run = RunReport()
        assert run.iterations == 0
        assert run.total_detected == 0


class TestNoProtection:
    def test_step_advances_grid_without_detection(self, small_grid_2d):
        expected = sweep(small_grid_2d.u.copy(), small_grid_2d.spec,
                           small_grid_2d.boundary)
        report = NoProtection().step(small_grid_2d)
        assert report.iteration == 1
        assert not report.detection_performed
        np.testing.assert_array_equal(small_grid_2d.u, expected)

    def test_run_returns_one_report_per_iteration(self, small_grid_2d):
        run = NoProtection().run(small_grid_2d, 7)
        assert run.iterations == 7
        assert small_grid_2d.iteration == 7

    def test_run_rejects_negative_iterations(self, small_grid_2d):
        with pytest.raises(ValueError):
            NoProtection().run(small_grid_2d, -1)

    def test_injected_fault_goes_unnoticed(self, small_grid_2d):
        injector = FaultInjector([FaultPlan(iteration=2, index=(3, 3), bit=30)])
        run = NoProtection().run(small_grid_2d, 5, inject=injector)
        assert injector.all_fired
        assert run.total_detected == 0

    def test_finalize_is_noop(self, small_grid_2d):
        assert NoProtection().finalize(small_grid_2d) is None

    def test_name(self):
        assert NoProtection().name == "no-abft"
