"""Unit and property tests for repro.ml.metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import (
    _binary_counts,
    accuracy_score,
    classification_report,
    f1_score,
    false_positive_rate,
    precision_score,
    recall_score,
    roc_auc_score,
    roc_curve,
)


class TestValidation:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([0, 1], [1])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_roc_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            roc_curve([0, 1, 1], [0.2, 0.8])


class TestBinaryCounts:
    def test_counts_partition_the_samples(self, rng):
        y_true = rng.integers(0, 2, 200)
        y_pred = rng.integers(0, 2, 200)
        tp, fp, fn, tn = _binary_counts(y_true, y_pred, 1)
        assert tp + fp + fn + tn == 200
        assert tp + fn == int(np.sum(y_true == 1))
        assert tp + fp == int(np.sum(y_pred == 1))

    def test_perfect_prediction_has_no_errors(self):
        y = [0, 1, 1, 0, 1]
        assert _binary_counts(y, y, 1) == (3, 0, 0, 2)
        report = classification_report(y, y)
        assert (report.precision, report.recall, report.f1, report.accuracy) == (1.0, 1.0, 1.0, 1.0)
        assert report.false_positive_rate == 0.0
        assert report.auc == 1.0

    def test_pos_label_swaps_the_roles(self):
        y_true = [0, 0, 1, 1, 1]
        y_pred = [0, 1, 1, 0, 1]
        tp, fp, fn, tn = _binary_counts(y_true, y_pred, 1)
        assert _binary_counts(y_true, y_pred, 0) == (tn, fn, fp, tp)


class TestPrecisionRecallF1:
    def test_textbook_values(self):
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        assert precision_score([1, 0], [0, 0]) == 0.0
        assert f1_score([1, 0], [0, 0]) == 0.0

    def test_no_positives_in_truth(self):
        assert recall_score([0, 0], [1, 0]) == 0.0

    def test_fpr_textbook(self):
        # 1 FP among 2 negatives.
        assert false_positive_rate([0, 0, 1], [1, 0, 1]) == pytest.approx(0.5)

    def test_pos_label_selects_class(self):
        y_true = ["a", "a", "b"]
        y_pred = ["a", "b", "b"]
        assert precision_score(y_true, y_pred, pos_label="a") == 1.0
        assert recall_score(y_true, y_pred, pos_label="a") == pytest.approx(0.5)

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200)
    )
    def test_f1_is_harmonic_mean(self, pairs):
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        p = precision_score(y_true, y_pred)
        r = recall_score(y_true, y_pred)
        f1 = f1_score(y_true, y_pred)
        assert 0.0 <= f1 <= 1.0
        if p + r > 0:
            assert f1 == pytest.approx(2 * p * r / (p + r))
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestROC:
    def test_perfect_ranking_auc_is_one(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_inverted_ranking_auc_is_zero(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(0.0)

    def test_constant_scores_auc_half(self):
        assert roc_auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_truth_stays_finite(self):
        # A fold with no positives yields a flat zero TPR, not NaNs.
        fpr, tpr, _ = roc_curve([0, 0, 0], [0.1, 0.5, 0.9])
        np.testing.assert_array_equal(tpr, np.zeros(4))
        np.testing.assert_allclose(fpr, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_auc_equals_mann_whitney_probability(self, rng):
        scores_neg = rng.normal(0, 1, 300)
        scores_pos = rng.normal(1, 1, 200)
        y = np.r_[np.zeros(300), np.ones(200)]
        scores = np.r_[scores_neg, scores_pos]
        auc = roc_auc_score(y, scores)
        # P(pos > neg) by brute force.
        wins = np.mean(scores_pos[:, None] > scores_neg[None, :])
        assert auc == pytest.approx(wins, abs=1e-9)

    def test_roc_curve_monotone(self, rng):
        y = rng.integers(0, 2, 100)
        s = rng.random(100)
        fpr, tpr, thresholds = roc_curve(y, s)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == pytest.approx(1.0) and tpr[-1] == pytest.approx(1.0)

    def test_ties_collapsed(self):
        fpr, tpr, thresholds = roc_curve([0, 1, 0, 1], [0.5, 0.5, 0.2, 0.9])
        # Distinct thresholds only (plus the leading +inf).
        assert len(thresholds) == len(set(thresholds.tolist()))


class TestClassificationReport:
    def test_report_bundles_all_metrics(self):
        y_true = [0, 1, 1, 0, 1, 1]
        y_pred = [0, 1, 1, 1, 1, 0]
        report = classification_report(y_true, y_pred)
        assert report.accuracy == pytest.approx(accuracy_score(y_true, y_pred))
        assert report.support_positive == 4
        assert report.support_negative == 2

    def test_report_for_negative_pos_label(self):
        y_true = [0, 1, 1, 0, 1, 1]
        y_pred = [0, 1, 1, 1, 1, 0]
        report = classification_report(y_true, y_pred, pos_label=0)
        assert report.support_positive == 2
        assert report.support_negative == 4
        assert report.precision == pytest.approx(precision_score(y_true, y_pred, pos_label=0))
        assert report.recall == pytest.approx(recall_score(y_true, y_pred, pos_label=0))

    def test_scores_improve_auc_over_hard_labels(self, rng):
        y = np.r_[np.zeros(50, int), np.ones(50, int)]
        scores = np.r_[rng.uniform(0, 0.6, 50), rng.uniform(0.4, 1.0, 50)]
        y_pred = (scores > 0.5).astype(int)
        with_scores = classification_report(y, y_pred, scores)
        without = classification_report(y, y_pred)
        assert with_scores.auc >= without.auc - 0.05
