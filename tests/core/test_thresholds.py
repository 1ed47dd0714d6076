"""Tests for operating-point / threshold selection."""

import numpy as np
import pytest

from repro.core.thresholds import (
    _all_points,
    _point_at,
    sweep_operating_points,
    threshold_for_fpr,
)


@pytest.fixture()
def scored(rng):
    n = 500
    y = rng.integers(0, 2, n)
    scores = y * 2.0 + rng.normal(0, 1.0, n)
    return y, scores


class TestThresholdForFPR:
    def test_constraint_respected(self, scored):
        y, scores = scored
        point = threshold_for_fpr(y, scores, max_fpr=0.05)
        assert point.false_positive_rate <= 0.05

    def test_recall_maximised_under_budget(self, scored):
        y, scores = scored
        tight = threshold_for_fpr(y, scores, max_fpr=0.01)
        loose = threshold_for_fpr(y, scores, max_fpr=0.2)
        assert loose.recall >= tight.recall
        assert loose.threshold <= tight.threshold

    def test_zero_budget_flags_cleanly(self, scored):
        y, scores = scored
        point = threshold_for_fpr(y, scores, max_fpr=0.0)
        assert point.false_positive_rate == 0.0

    def test_max_recall_point_selected(self, scored):
        """Among all feasible points the selector returns the one with
        the highest recall (not merely the first feasible one)."""
        y, scores = scored
        point = threshold_for_fpr(y, scores, max_fpr=0.05)
        feasible = [
            p
            for p in _all_points(np.asarray(y), np.asarray(scores, dtype=float))
            if p.false_positive_rate <= 0.05
        ]
        assert point.recall == max(p.recall for p in feasible)

    def test_perfect_separation_full_recall_without_false_positives(self):
        y = np.array([0, 0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
        point = threshold_for_fpr(y, scores, max_fpr=0.0)
        assert point.threshold == 0.8
        assert (point.recall, point.precision, point.false_positive_rate) == (1.0, 1.0, 0.0)

    def test_no_feasible_point_flags_nothing(self):
        # The top-scored sample is a negative, so every threshold that
        # flags anything has FPR > 0.
        y = np.array([1, 1, 0])
        scores = np.array([0.2, 0.4, 0.9])
        point = threshold_for_fpr(y, scores, max_fpr=0.0)
        assert point.threshold > scores.max()
        assert point.flagged_fraction == 0.0
        assert point.recall == 0.0
        assert point.precision == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            threshold_for_fpr([0, 1, 1], [0.1, 0.9], max_fpr=0.1)


class TestAllPoints:
    def test_matches_direct_count_at_every_threshold(self, rng):
        # Ties on a coarse grid exercise the distinct-score collapse.
        y = rng.integers(0, 2, 300)
        scores = np.round(y * 1.5 + rng.normal(0, 1.0, 300), 1)
        points = _all_points(y, scores)
        assert [p.threshold for p in points] == sorted(set(scores.tolist()), reverse=True)
        for point in points:
            assert point == _point_at(y, scores, point.threshold)

    def test_lowest_threshold_flags_everything(self, scored):
        y, scores = scored
        last = _all_points(np.asarray(y), np.asarray(scores, dtype=float))[-1]
        assert last.flagged_fraction == 1.0
        assert last.recall == 1.0
        assert last.false_positive_rate == 1.0


class TestSweep:
    def test_sweep_shape_and_order(self, scored):
        y, scores = scored
        points = sweep_operating_points(y, scores, n_points=7)
        assert len(points) == 7
        thresholds = [p.threshold for p in points]
        assert thresholds == sorted(thresholds)
        # Raising the threshold never raises FPR.
        fprs = [p.false_positive_rate for p in points]
        assert all(a >= b - 1e-12 for a, b in zip(fprs, fprs[1:]))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep_operating_points([], [])

    def test_sweep_spans_the_score_range(self, scored):
        y, scores = scored
        points = sweep_operating_points(y, scores, n_points=5)
        assert points[0].threshold == pytest.approx(float(np.min(scores)))
        assert points[0].flagged_fraction == 1.0
        assert points[-1].threshold == pytest.approx(float(np.max(scores)))
        assert points[-1].flagged_fraction == pytest.approx(1 / len(scores))
