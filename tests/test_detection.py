"""Unit tests for the checksum-comparison detector (Theorem 2)."""

import numpy as np
import pytest

from repro.core.detection import DetectionResult, detect_errors, relative_discrepancy


class TestRelativeDiscrepancy:
    def test_identical_checksums(self):
        cs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(relative_discrepancy(cs, cs), np.zeros(3))

    def test_relative_error_definition(self):
        computed = np.array([100.0, 200.0])
        interpolated = np.array([101.0, 200.0])
        rel = relative_discrepancy(computed, interpolated)
        assert rel[0] == pytest.approx(0.01)
        assert rel[1] == 0.0

    def test_zero_computed_falls_back_to_absolute(self):
        computed = np.array([0.0, 0.0])
        interpolated = np.array([0.0, 0.5])
        rel = relative_discrepancy(computed, interpolated)
        assert rel[0] == 0.0
        assert rel[1] == pytest.approx(0.5)

    def test_negative_checksums(self):
        computed = np.array([-100.0])
        interpolated = np.array([-110.0])
        assert relative_discrepancy(computed, interpolated)[0] == pytest.approx(0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            relative_discrepancy(np.zeros(3), np.zeros(4))

    def test_2d_checksums_supported(self):
        computed = np.ones((4, 3))
        interpolated = np.ones((4, 3))
        interpolated[2, 1] = 1.1
        rel = relative_discrepancy(computed, interpolated)
        assert rel[2, 1] == pytest.approx(0.1)
        assert rel.sum() == pytest.approx(0.1)


class TestDetectErrors:
    def test_no_error_detected_below_threshold(self):
        computed = np.array([10.0, 20.0, 30.0])
        interpolated = computed * (1.0 + 1e-7)
        result = detect_errors(computed, interpolated, 1e-5)
        assert not result.detected
        assert result.n_errors == 0
        assert bool(result) is False
        assert result.n_checked == 3
        assert result.max_relative_error == pytest.approx(1e-7, rel=1e-2)

    def test_single_error_detected_and_located(self):
        computed = np.array([10.0, 20.0, 30.0, 40.0])
        interpolated = computed.copy()
        computed[2] += 1.0  # corrupted entry
        result = detect_errors(computed, interpolated, 1e-5)
        assert result.detected
        assert result.n_errors == 1
        assert result.indices_as_tuples() == ((2,),)
        assert len(result) == 1

    def test_multiple_errors_detected(self):
        computed = np.array([10.0, 20.0, 30.0, 40.0])
        interpolated = computed.copy()
        computed[0] *= 1.5
        computed[3] *= 0.5
        result = detect_errors(computed, interpolated, 1e-5)
        assert result.n_errors == 2
        assert set(result.indices_as_tuples()) == {(0,), (3,)}

    def test_2d_layered_checksum_indices(self):
        computed = np.ones((5, 3)) * 100.0
        interpolated = computed.copy()
        computed[4, 2] += 10.0
        result = detect_errors(computed, interpolated, 1e-5)
        assert result.indices_as_tuples() == ((4, 2),)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            detect_errors(np.zeros(2), np.zeros(2), 0.0)

    def test_relative_errors_reported_for_flagged_entries(self):
        computed = np.array([100.0, 100.0])
        interpolated = np.array([100.0, 120.0])
        result = detect_errors(computed, interpolated, 1e-3)
        assert result.relative_errors.shape == (1,)
        assert result.relative_errors[0] == pytest.approx(0.2)

    def test_detection_threshold_boundary(self):
        # Exactly at the threshold is NOT flagged (strictly greater).
        computed = np.array([1.0])
        interpolated = np.array([1.0 + 1e-5])
        assert not detect_errors(computed, interpolated, 1e-5 + 1e-9).detected
        assert detect_errors(computed, interpolated, 0.9e-5).detected

    def test_nan_errors_are_flagged(self):
        """A value turned NaN or inf makes its entry's error NaN, which no
        ``>`` flags: an entry is flagged unless its error is at most eps
        (float32 checksums take the NumPy compare)."""
        computed = np.array([1.0, np.nan, 2.0, np.inf, 3.0], np.float32)
        interpolated = np.array([1.0, 1.0, 2.0, 1.0, np.inf], np.float32)
        result = detect_errors(computed, interpolated, 1e-5)
        np.testing.assert_array_equal(result.mismatch_indices, [[1], [3], [4]])
        assert np.isnan(result.relative_errors[:2]).all()
        assert result.relative_errors[2] == np.inf

    def test_result_dataclass_fields(self):
        result = DetectionResult(
            mismatch_indices=np.empty((0, 1), dtype=int),
            relative_errors=np.empty(0),
            max_relative_error=0.0,
            threshold=1e-5,
            n_checked=10,
        )
        assert result.threshold == 1e-5
        assert not result.detected
