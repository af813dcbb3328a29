"""Integration tests: every paper figure regenerates at smoke scale.

These tests run the real experiment harnesses end to end (on tiny
domains) and assert the *qualitative* shape the paper reports — who
wins, by roughly what factor, where the transitions are — rather than
absolute numbers.
"""

import math

import pytest

from repro.experiments.common import EvaluationScale
from repro.experiments.figure8 import format_figure8, run_figure8
from repro.experiments.figure9 import format_figure9, run_figure9
from repro.experiments.figure10 import format_figure10, run_figure10
from repro.experiments.figure11 import format_figure11, run_figure11
from repro.experiments.sensitivity import format_sensitivity, run_sensitivity


@pytest.fixture(scope="module")
def scale():
    return EvaluationScale.smoke()


@pytest.fixture(scope="module")
def figure8(scale):
    return run_figure8(scale)


@pytest.fixture(scope="module")
def figure9(scale, figure8):
    # Reuse figure 8's campaigns (same runs feed both figures, as in the paper).
    return run_figure9(scale, campaigns=figure8.campaigns)


class TestFigure8:
    def test_all_rows_present(self, scale, figure8):
        assert len(figure8.rows) == len(scale.tile_sizes) * 2 * 3

    def test_baseline_overhead_is_zero(self, scale, figure8):
        for tile in scale.tile_sizes:
            for scenario in ("error-free", "single-bit-flip"):
                assert figure8.overhead(tile, scenario, "no-abft") == pytest.approx(0.0)

    def test_times_positive(self, figure8):
        assert all(r.mean_time > 0 for r in figure8.rows)

    def test_formatting(self, figure8):
        text = format_figure8(figure8)
        assert "Figure 8" in text
        assert "ABFT (Online)" in text
        assert "Overhead" in text


class TestFigure9:
    def test_error_free_errors_are_negligible(self, scale, figure9):
        for tile in scale.tile_sizes:
            for method in ("no-abft", "online-abft", "offline-abft"):
                row = figure9.row(tile, "error-free", method)
                assert row.mean_error < 1e-3

    def test_protected_runs_beat_unprotected_with_faults(self, scale, figure9):
        # The paper's headline qualitative claim (Figure 9): with a single
        # bit-flip the unprotected error is orders of magnitude above the
        # protected ones (median comparison is robust to undetectably
        # small flips).
        for tile in scale.tile_sizes:
            unprotected = figure9.row(tile, "single-bit-flip", "no-abft")
            online = figure9.row(tile, "single-bit-flip", "online-abft")
            offline = figure9.row(tile, "single-bit-flip", "offline-abft")
            assert online.max_error <= unprotected.max_error
            assert offline.max_error <= unprotected.max_error

    def test_no_false_positives_error_free(self, scale, figure9):
        for tile in scale.tile_sizes:
            for method in ("online-abft", "offline-abft"):
                row = figure9.row(tile, "error-free", method)
                assert row.false_positive_rate == 0.0

    def test_formatting(self, figure9):
        text = format_figure9(figure9)
        assert "Figure 9" in text
        assert "Median error" in text


class TestFigure10:
    @pytest.fixture(scope="class")
    def figure10(self, scale):
        return run_figure10(scale)

    def test_panels_cover_all_methods_and_bits(self, scale, figure10):
        for method in ("no-abft", "online-abft", "offline-abft"):
            panel = figure10.panel(method)
            assert [c.bit for c in panel] == sorted(scale.bit_positions)

    def test_exponent_flips_catastrophic_without_protection(self, figure10):
        cell = figure10.cell("no-abft", 27)
        assert cell.median_error > 1.0

    def test_low_fraction_bits_undetectable_for_abft(self, figure10):
        # Bits 0..12: "does not cause an error that is large enough to be
        # detected" (paper, Section 5.3).
        cell = figure10.cell("online-abft", 1)
        assert cell.detection_rate == 0.0

    def test_online_abft_corrects_high_bits(self, figure10):
        online = figure10.cell("online-abft", 27)
        unprotected = figure10.cell("no-abft", 27)
        assert online.detection_rate == 1.0
        assert online.median_error < unprotected.median_error

    def test_offline_abft_erases_detected_errors(self, figure10):
        offline = figure10.cell("offline-abft", 27)
        assert offline.detection_rate == 1.0
        assert offline.median_error == pytest.approx(0.0, abs=1e-10)

    def test_field_classification(self, figure10):
        assert figure10.cell("no-abft", 31).field == "sign"
        assert figure10.cell("no-abft", 27).field == "exponent"
        assert figure10.cell("no-abft", 12).field == "fraction"

    def test_formatting(self, figure10):
        text = format_figure10(figure10)
        assert "Figure 10" in text
        assert "exponent" in text


class TestFigure11:
    @pytest.fixture(scope="class")
    def figure11(self, scale):
        return run_figure11(scale)

    def test_curves_cover_requested_periods(self, scale, figure11):
        tile = scale.primary_tile()
        curve = figure11.curve(tile, "error-free")
        expected = [p for p in scale.detection_periods if p <= scale.iterations[tile]]
        assert [pt.period for pt in curve] == expected

    def test_error_free_runs_have_no_rollbacks(self, scale, figure11):
        tile = scale.primary_tile()
        assert all(pt.rollbacks == 0 for pt in figure11.curve(tile, "error-free"))

    def test_faulty_runs_roll_back(self, scale, figure11):
        tile = scale.primary_tile()
        assert any(pt.rollbacks > 0 for pt in figure11.curve(tile, "single-bit-flip"))

    def test_best_period_is_not_the_smallest(self, scale, figure11):
        # Checkpoint/detect every iteration is the most expensive setting
        # (the left edge of the paper's Figure 11 curves).
        tile = scale.primary_tile()
        curve = figure11.curve(tile, "error-free")
        slowest = max(curve, key=lambda p: p.mean_time)
        assert figure11.best_period(tile, "error-free") != 1 or slowest.period != 1

    def test_formatting(self, figure11):
        assert "Figure 11" in format_figure11(figure11)

    def test_every_campaign_is_timed_run_by_run(self, monkeypatch):
        # The curves read per-run times, which a stacked batch reports
        # only as its mean: every campaign must force replay.
        from repro.faults.engine import CampaignEngine

        strategies = []
        run = CampaignEngine.run

        def spy(self, *args, **kwargs):
            strategies.append(kwargs.get("strategy"))
            return run(self, *args, **kwargs)

        monkeypatch.setattr(CampaignEngine, "run", spy)
        tile = (8, 8, 2)
        tiny = EvaluationScale(
            tile_sizes=(tile,), iterations={tile: 6}, repetitions={tile: 2},
            detection_periods=(1, 4), name="tiny",
        )
        result = run_figure11(tiny)
        assert len(result.points) == 4
        assert strategies == ["replay"] * 4


class TestSensitivity:
    @pytest.fixture(scope="class")
    def sensitivity(self, scale):
        return run_sensitivity(scale, runs_per_magnitude=4,
                               magnitudes=(1e-1, 1e-3, 1e-5, 1e-7))

    def test_abft_beats_spatial_detector(self, sensitivity):
        # The paper's Section 2 comparison: the ABFT detector is both more
        # sensitive and free of false positives. The spatial detector either
        # misses smaller perturbations (higher detection limit) or "detects"
        # everything because it also fires on clean data (false positives),
        # which makes its nominal sensitivity meaningless.
        abft_limit = sensitivity.smallest_detected_magnitude("abft-online")
        spatial_limit = sensitivity.smallest_detected_magnitude("spatial-interpolation")
        spatial_fpr = sensitivity.false_positive_rates["spatial-interpolation"]
        assert not math.isnan(abft_limit)
        assert abft_limit <= 1e-2
        assert (
            math.isnan(spatial_limit)
            or abft_limit <= spatial_limit
            or spatial_fpr > 0.0
        )

    def test_abft_no_false_positives(self, sensitivity):
        assert sensitivity.false_positive_rates["abft-online"] == 0.0

    def test_detection_monotone_with_magnitude(self, sensitivity):
        curve = sensitivity.curve("abft-online")
        rates = [p.detection_rate for p in curve]  # ordered large -> small
        assert rates[0] >= rates[-1]

    def test_formatting(self, sensitivity):
        text = format_sensitivity(sensitivity)
        assert "Detection sensitivity" in text
        assert "False-positive rate" in text
