"""Unit tests for fault-injection campaigns."""

import numpy as np
import pytest

from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection, RunReport, StepReport
from repro.faults.campaign import (
    CampaignConfig,
    RunRecord,
    compute_reference,
    resolve_run_counters,
    run_campaign,
    run_one,
)
from repro.faults.models import SingleBitFlip
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion


def _grid_factory():
    rng = np.random.default_rng(11)
    u0 = (rng.random((16, 12)) * 100).astype(np.float32)

    def factory():
        return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())

    return factory


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(iterations=0, repetitions=1)
        with pytest.raises(ValueError):
            CampaignConfig(iterations=1, repetitions=0)

    def test_defaults(self):
        config = CampaignConfig(iterations=10, repetitions=3)
        assert config.inject is True
        assert config.fault_model == SingleBitFlip()


class TestComputeReference:
    def test_reference_is_error_free_final_state(self):
        factory = _grid_factory()
        ref = compute_reference(factory, 12)
        grid = factory()
        grid.run(12)
        np.testing.assert_array_equal(ref, grid.u)


class TestRunCampaign:
    def test_error_free_campaign_records_zero_error(self):
        factory = _grid_factory()
        config = CampaignConfig(iterations=8, repetitions=3, inject=False)
        result = run_campaign(factory, lambda g: NoProtection(), config)
        assert len(result) == 3
        assert all(r.arithmetic_error == 0.0 for r in result.records)
        assert all(not r.injected for r in result.records)
        assert np.isnan(result.detection_rate())
        assert result.false_positive_rate() == 0.0

    def test_injected_campaign_draws_independent_faults(self):
        factory = _grid_factory()
        config = CampaignConfig(iterations=10, repetitions=5, inject=True, seed=3)
        result = run_campaign(factory, lambda g: NoProtection(), config)
        faults = [r.fault for r in result.records]
        assert all(f is not None for f in faults)
        assert len({(f.iteration, f.index, f.bit) for f in faults}) > 1

    def test_campaign_reproducible_with_same_seed(self):
        factory = _grid_factory()
        config = CampaignConfig(iterations=10, repetitions=4, inject=True, seed=17)
        r1 = run_campaign(factory, lambda g: NoProtection(), config)
        r2 = run_campaign(factory, lambda g: NoProtection(), config)
        assert [r.fault for r in r1.records] == [r.fault for r in r2.records]
        assert r1.errors() == pytest.approx(r2.errors())

    def test_online_abft_campaign_counts_detections(self):
        factory = _grid_factory()
        config = CampaignConfig(iterations=12, repetitions=6, inject=True, seed=2)
        result = run_campaign(
            factory, lambda g: OnlineABFT.for_grid(g, epsilon=1e-5), config
        )
        assert result.protector_name == "online-abft"
        # High bits are detected; very low bits are not: the rate is within (0, 1].
        assert 0.0 <= result.detection_rate() <= 1.0
        detected_runs = [r for r in result.records if r.detected]
        for run in detected_runs:
            assert run.errors_corrected >= 0

    def test_pinned_bit_position(self):
        factory = _grid_factory()
        config = CampaignConfig(
            iterations=6, repetitions=4, inject=True, seed=1,
            fault_model=SingleBitFlip(bit=30),
        )
        result = run_campaign(factory, lambda g: NoProtection(), config)
        assert all(r.fault.bit == 30 for r in result.records)

    def test_time_and_error_stats(self):
        factory = _grid_factory()
        config = CampaignConfig(iterations=5, repetitions=3, inject=False)
        result = run_campaign(factory, lambda g: NoProtection(), config)
        assert result.time_stats().count == 3
        assert result.time_stats().mean > 0.0
        assert result.error_stats().maximum == 0.0

    def test_precomputed_reference_reused(self):
        factory = _grid_factory()
        ref = compute_reference(factory, 5)
        config = CampaignConfig(iterations=5, repetitions=2, inject=False)
        result = run_campaign(factory, lambda g: NoProtection(), config, reference=ref)
        assert all(r.arithmetic_error == 0.0 for r in result.records)

    def test_run_record_properties(self):
        record = RunRecord(
            run_index=0, elapsed_seconds=0.1, arithmetic_error=1.0,
            errors_detected=0, errors_corrected=0, errors_uncorrected=0,
            rollbacks=0, recomputed_iterations=0,
        )
        assert record.fault is None
        assert not record.injected
        assert not record.detected


class TestTimedRunsPauseTheCollector:
    """A run is timed with the garbage collector paused, as ``timeit``
    times, so its ``elapsed_seconds`` holds no collection that earlier
    allocations triggered; the collector's previous state comes back."""

    @staticmethod
    def _run(inject):
        config = CampaignConfig(iterations=3, repetitions=1, inject=False)
        return run_one(
            _grid_factory()(), NoProtection(), [], config, 0, lambda u: 0.0,
            inject=inject,
        )

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_paused_during_the_run_and_restored(self, enabled):
        import gc

        seen = []
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            self._run(lambda grid, iteration: seen.append(gc.isenabled()))
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * 3

    def test_restored_when_the_run_raises(self):
        import gc

        def fail(grid, iteration):
            raise RuntimeError("the run failed")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="the run failed"):
            self._run(fail)
        assert gc.isenabled()


class TestResolveRunCounters:
    @staticmethod
    def _report(detected=0, corrected=0, uncorrected=0, rollback=False):
        report = RunReport()
        report.add(
            StepReport(
                iteration=1,
                errors_detected=detected,
                errors_corrected=corrected,
                errors_uncorrected=uncorrected,
                rollback=rollback,
            )
        )
        return report

    def test_missing_counters_fall_back_to_run_report(self):
        counters = resolve_run_counters(
            NoProtection(), self._report(detected=2, corrected=1)
        )
        assert counters == (2, 1, 0, 0, 0)

    def test_genuine_zero_counter_survives(self):
        # The protector exposes the counter and counted 0; a truthiness
        # fallback would overwrite it with the run report's nonzero sum.
        class CountingProtector(NoProtection):
            total_detections = 0
            total_corrections = 0
            total_uncorrected = 0

        counters = resolve_run_counters(
            CountingProtector(), self._report(detected=3, corrected=3)
        )
        assert counters[:3] == (0, 0, 0)
        # Counters the protector does not expose still fall back.
        counters = resolve_run_counters(
            CountingProtector(), self._report(rollback=True)
        )
        assert counters[3] == 1


class TestColumnarSummaries:
    @staticmethod
    def _result(n=4):
        factory = _grid_factory()
        config = CampaignConfig(iterations=6, repetitions=n, inject=True, seed=5)
        return run_campaign(factory, lambda g: NoProtection(), config)

    def test_times_and_errors_are_arrays(self):
        result = self._result()
        times, errors = result.times(), result.errors()
        assert isinstance(times, np.ndarray) and times.dtype == np.float64
        assert isinstance(errors, np.ndarray) and errors.dtype == np.float64
        assert list(times) == [r.elapsed_seconds for r in result.records]
        assert list(errors) == [r.arithmetic_error for r in result.records]

    def test_columns_cached_until_records_change(self):
        result = self._result()
        first = result.columns()
        assert result.columns() is first
        result.records.append(result.records[0])
        refreshed = result.columns()
        assert refreshed is not first
        assert len(refreshed.elapsed) == len(result.records)

    def test_rates_match_record_scan(self):
        result = self._result(6)
        injected = [r for r in result.records if r.injected]
        expected = sum(1 for r in injected if r.detected) / len(injected)
        assert result.detection_rate() == expected
        assert result.total_rollbacks() == sum(r.rollbacks for r in result.records)
