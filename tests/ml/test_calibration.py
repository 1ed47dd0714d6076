"""Tests for isotonic probability calibration."""

import numpy as np
import pytest

from repro.ml.calibration import IsotonicCalibrator


@pytest.fixture()
def scored(rng):
    """Scores correlated with labels but miscalibrated (overconfident)."""
    n = 600
    y = rng.integers(0, 2, n)
    scores = 4.0 * (y - 0.5) + rng.normal(0, 1.5, n)
    return scores, y


class TestIsotonic:
    def test_fit_is_monotone(self, scored):
        scores, y = scored
        calibrator = IsotonicCalibrator().fit(scores, y)
        grid = calibrator.predict_proba(np.linspace(scores.min(), scores.max(), 200))
        assert np.all(np.diff(grid) >= -1e-12)

    def test_pava_on_known_sequence(self):
        # Classic PAVA example: decreasing pair gets pooled.
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        calibrator = IsotonicCalibrator().fit(scores, y)
        p = calibrator.predict_proba(scores)
        assert np.all(np.diff(p) >= -1e-12)
        # The violating middle pair pools to 0.5.
        assert p[1] == pytest.approx(0.5)
        assert p[2] == pytest.approx(0.5)

    def test_probabilities_clamped(self, scored):
        scores, y = scored
        calibrator = IsotonicCalibrator().fit(scores, y)
        extreme = calibrator.predict_proba(np.array([-100.0, 100.0]))
        assert 0.0 <= extreme[0] <= extreme[1] <= 1.0

    def test_perfectly_separable(self):
        scores = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([0, 0, 1, 1])
        p = IsotonicCalibrator().fit(scores, y).predict_proba(scores)
        assert p[0] == pytest.approx(0.0)
        assert p[-1] == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IsotonicCalibrator().fit([0.1, 0.2, 0.3], [0, 1])

    def test_calibration_lowers_brier_score(self, scored):
        """The overconfident raw sigmoid of the scores scores worse than
        the isotonic fit on the same data."""
        scores, y = scored
        raw = 1.0 / (1.0 + np.exp(-4.0 * scores))
        calibrated = IsotonicCalibrator().fit(scores, y).predict_proba(scores)
        assert np.mean((calibrated - y) ** 2) < np.mean((raw - y) ** 2)
