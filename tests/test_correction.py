"""Unit tests for error localisation and correction (Eq. 10)."""

import numpy as np
import pytest

from repro.core.checksums import both_checksums, checksum
from repro.core.correction import correct_errors, match_detections
from repro.core.detection import detect_errors
from repro.core.interpolation import interpolate_checksum
from repro.stencil.boundary import BoundarySpec
from repro.stencil.kernels import five_point_diffusion, jacobi4, seven_point_diffusion_3d
from repro.stencil.sweep import sweep


def _corrupt_and_detect_2d(rng, spec, corrupt_index, delta, epsilon=1e-8):
    """One sweep, one corruption; returns everything the corrector needs."""
    bspec = BoundarySpec.clamp(2)
    u_prev = rng.random((10, 8)) + 1.0
    a_prev, b_prev = both_checksums(u_prev)
    u_new = sweep(u_prev, spec, bspec)
    truth = u_new.copy()
    u_new[corrupt_index] += delta

    a_comp, b_comp = both_checksums(u_new)
    a_interp = interpolate_checksum(a_prev, u_prev, spec, bspec, 1)
    b_interp = interpolate_checksum(b_prev, u_prev, spec, bspec, 0)
    det_a = detect_errors(a_comp, a_interp, epsilon)
    det_b = detect_errors(b_comp, b_interp, epsilon)
    return u_new, truth, (a_comp, a_interp, b_comp, b_interp), (det_a, det_b)


class TestMatchDetections2D:
    def test_single_error_location(self, rng):
        u_new, truth, cs, (det_a, det_b) = _corrupt_and_detect_2d(
            rng, five_point_diffusion(0.2), (4, 5), 3.0
        )
        a_comp, a_interp, b_comp, b_interp = cs
        locations, unresolved = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 2
        )
        assert locations == [(4, 5)]
        assert unresolved == 0

    def test_two_errors_in_distinct_rows_and_columns(self, rng):
        spec = jacobi4()
        bspec = BoundarySpec.clamp(2)
        u_prev = rng.random((12, 12)) + 1.0
        a_prev, b_prev = both_checksums(u_prev)
        u_new = sweep(u_prev, spec, bspec)
        u_new[2, 3] += 5.0
        u_new[7, 9] -= 2.0
        a_comp, b_comp = both_checksums(u_new)
        a_interp = interpolate_checksum(a_prev, u_prev, spec, bspec, 1)
        b_interp = interpolate_checksum(b_prev, u_prev, spec, bspec, 0)
        det_a = detect_errors(a_comp, a_interp, 1e-8)
        det_b = detect_errors(b_comp, b_interp, 1e-8)
        locations, unresolved = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 2
        )
        assert set(locations) == {(2, 3), (7, 9)}
        assert unresolved == 0

    def test_unpaired_flag_reported_as_unresolved(self, rng):
        # A row flag with no column flag cannot be localised.
        a_comp = np.array([10.0, 20.0])
        a_interp = np.array([10.0, 25.0])
        b_comp = np.array([30.0, 40.0])
        b_interp = b_comp.copy()
        det_a = detect_errors(a_comp, a_interp, 1e-5)
        det_b = detect_errors(b_comp, b_interp, 1e-5)
        locations, unresolved = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 2
        )
        assert locations == []
        assert unresolved == 1

    def test_invalid_ndim(self, rng):
        det = detect_errors(np.ones(2), np.ones(2), 1e-5)
        with pytest.raises(ValueError, match="domain_ndim"):
            match_detections(det, det, np.ones(2), np.ones(2), np.ones(2), np.ones(2), 4)


class TestMatchDetections3D:
    def test_single_error_in_layer(self, rng):
        spec = seven_point_diffusion_3d(0.1)
        bspec = BoundarySpec.clamp(3)
        u_prev = rng.random((8, 7, 3)) + 1.0
        a_prev = checksum(u_prev, 1)
        b_prev = checksum(u_prev, 0)
        u_new = sweep(u_prev, spec, bspec)
        u_new[5, 2, 1] += 4.0
        a_comp = checksum(u_new, 1)
        b_comp = checksum(u_new, 0)
        a_interp = interpolate_checksum(a_prev, u_prev, spec, bspec, 1)
        b_interp = interpolate_checksum(b_prev, u_prev, spec, bspec, 0)
        det_a = detect_errors(a_comp, a_interp, 1e-8)
        det_b = detect_errors(b_comp, b_interp, 1e-8)
        locations, unresolved = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 3
        )
        assert locations == [(5, 2, 1)]
        assert unresolved == 0

    def test_errors_in_different_layers_are_independent(self, rng):
        spec = seven_point_diffusion_3d(0.1)
        bspec = BoundarySpec.clamp(3)
        u_prev = rng.random((6, 6, 4)) + 1.0
        a_prev = checksum(u_prev, 1)
        b_prev = checksum(u_prev, 0)
        u_new = sweep(u_prev, spec, bspec)
        u_new[1, 2, 0] += 3.0
        u_new[4, 5, 3] += 1.5
        a_comp = checksum(u_new, 1)
        b_comp = checksum(u_new, 0)
        a_interp = interpolate_checksum(a_prev, u_prev, spec, bspec, 1)
        b_interp = interpolate_checksum(b_prev, u_prev, spec, bspec, 0)
        det_a = detect_errors(a_comp, a_interp, 1e-8)
        det_b = detect_errors(b_comp, b_interp, 1e-8)
        locations, unresolved = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 3
        )
        assert set(locations) == {(1, 2, 0), (4, 5, 3)}
        assert unresolved == 0


class TestCorrectErrors:
    def test_single_error_recovered(self, rng):
        u_new, truth, cs, (det_a, det_b) = _corrupt_and_detect_2d(
            rng, five_point_diffusion(0.2), (4, 5), 3.0
        )
        a_comp, a_interp, b_comp, b_interp = cs
        locations, _ = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 2
        )
        records = correct_errors(u_new, locations, a_comp, a_interp, b_comp, b_interp)
        assert len(records) == 1
        assert records[0].index == (4, 5)
        assert records[0].old_value == pytest.approx(truth[4, 5] + 3.0)
        np.testing.assert_allclose(u_new, truth, rtol=1e-8)

    def test_correction_patches_checksums(self, rng):
        u_new, truth, cs, (det_a, det_b) = _corrupt_and_detect_2d(
            rng, five_point_diffusion(0.2), (2, 2), -1.5
        )
        a_comp, a_interp, b_comp, b_interp = cs
        locations, _ = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 2
        )
        correct_errors(u_new, locations, a_comp, a_interp, b_comp, b_interp)
        # After correction the patched checksums describe the repaired domain.
        np.testing.assert_allclose(a_comp, u_new.sum(axis=1), rtol=1e-8)
        np.testing.assert_allclose(b_comp, u_new.sum(axis=0), rtol=1e-8)

    def test_non_finite_estimate_is_skipped(self, rng):
        """A value turned NaN leaves its residuals NaN, so Eq. 10 has no
        finite estimate: the location is skipped, and the domain and both
        checksums keep their bits."""
        u_new, _, cs, _ = _corrupt_and_detect_2d(
            rng, five_point_diffusion(0.2), (4, 5), 0.0
        )
        u_new[4, 5] = np.nan
        a_comp, a_interp, b_comp, b_interp = cs
        a_comp[4], b_comp[5] = np.nan, np.nan
        before = [a.copy() for a in (u_new, a_comp, b_comp)]
        records = correct_errors(u_new, [(4, 5)], a_comp, a_interp, b_comp, b_interp)
        assert records == []
        for now, was in zip((u_new, a_comp, b_comp), before):
            assert now.tobytes() == was.tobytes()

    @pytest.mark.parametrize("strategy", ["average", "row", "column"])
    def test_strategies_all_recover_value(self, rng, strategy):
        u_new, truth, cs, (det_a, det_b) = _corrupt_and_detect_2d(
            rng, jacobi4(), (6, 1), 2.0
        )
        a_comp, a_interp, b_comp, b_interp = cs
        locations, _ = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 2
        )
        records = correct_errors(
            u_new, locations, a_comp, a_interp, b_comp, b_interp, strategy=strategy
        )
        assert records[0].row_estimate == pytest.approx(truth[6, 1], rel=1e-8)
        assert records[0].column_estimate == pytest.approx(truth[6, 1], rel=1e-8)
        np.testing.assert_allclose(u_new, truth, rtol=1e-7)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            correct_errors(
                np.zeros((2, 2)), [], np.zeros(2), np.zeros(2), np.zeros(2),
                np.zeros(2), strategy="vote",
            )

    def test_location_dimension_mismatch_rejected(self, rng):
        u = rng.random((3, 3))
        with pytest.raises(ValueError, match="dimensionality"):
            correct_errors(
                u, [(1, 1, 1)], np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)
            )

    def test_3d_correction(self, rng):
        spec = seven_point_diffusion_3d(0.1)
        bspec = BoundarySpec.clamp(3)
        u_prev = rng.random((6, 5, 3)) + 1.0
        a_prev = checksum(u_prev, 1)
        b_prev = checksum(u_prev, 0)
        u_new = sweep(u_prev, spec, bspec)
        truth = u_new.copy()
        u_new[3, 1, 2] += 2.5
        a_comp = checksum(u_new, 1)
        b_comp = checksum(u_new, 0)
        a_interp = interpolate_checksum(a_prev, u_prev, spec, bspec, 1)
        b_interp = interpolate_checksum(b_prev, u_prev, spec, bspec, 0)
        det_a = detect_errors(a_comp, a_interp, 1e-8)
        det_b = detect_errors(b_comp, b_interp, 1e-8)
        locations, _ = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 3
        )
        records = correct_errors(u_new, locations, a_comp, a_interp, b_comp, b_interp)
        assert records[0].index == (3, 1, 2)
        np.testing.assert_allclose(u_new, truth, rtol=1e-8)

    def test_applied_change_property(self, rng):
        u_new, truth, cs, (det_a, det_b) = _corrupt_and_detect_2d(
            rng, jacobi4(), (0, 0), 1.0
        )
        a_comp, a_interp, b_comp, b_interp = cs
        locations, _ = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, 2
        )
        rec = correct_errors(u_new, locations, a_comp, a_interp, b_comp, b_interp)[0]
        assert rec.applied_change == pytest.approx(-1.0, rel=1e-6)
