"""Tests for resampling (SMOTE & friends) and cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.base import clone
from repro.ml.logistic import LogisticRegression
from repro.ml.model_selection import _stratified_fold_of, cross_validate
from repro.ml.sampling import class_counts, random_oversample, random_undersample, smote
from repro.ml.tree import DecisionTreeClassifier


def imbalanced(rng, n_major=120, n_minor=18):
    X = np.vstack(
        [rng.normal(0, 1, (n_major, 3)), rng.normal(3, 1, (n_minor, 3))]
    )
    y = np.concatenate([np.zeros(n_major, int), np.ones(n_minor, int)])
    return X, y


class TestSmote:
    def test_balances_classes(self, rng):
        X, y = imbalanced(rng)
        Xs, ys = smote(X, y, random_state=0)
        counts = class_counts(ys)
        assert counts[0] == counts[1]

    def test_original_rows_preserved(self, rng):
        X, y = imbalanced(rng)
        Xs, ys = smote(X, y, random_state=0)
        np.testing.assert_allclose(Xs[: len(X)], X)
        np.testing.assert_array_equal(ys[: len(y)], y)

    def test_synthetic_points_in_minority_hull(self, rng):
        X, y = imbalanced(rng)
        Xs, ys = smote(X, y, random_state=0)
        synthetic = Xs[len(X):]
        minority = X[y == 1]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        # Convex combinations stay inside the per-axis bounding box.
        assert (synthetic >= lo - 1e-9).all()
        assert (synthetic <= hi + 1e-9).all()

    def test_single_minority_point_duplicated(self):
        X = np.vstack([np.zeros((5, 2)), np.ones((1, 2))])
        y = np.array([0, 0, 0, 0, 0, 1])
        Xs, ys = smote(X, y, random_state=0)
        assert class_counts(ys)[1] == 5
        np.testing.assert_allclose(Xs[ys == 1], 1.0)

    def test_already_balanced_untouched(self, rng):
        X = rng.normal(0, 1, (20, 2))
        y = np.r_[np.zeros(10, int), np.ones(10, int)]
        Xs, ys = smote(X, y, random_state=0)
        assert Xs.shape == X.shape

    def test_multiclass_rejected(self, rng):
        X = rng.normal(0, 1, (30, 2))
        with pytest.raises(ValueError):
            smote(X, rng.integers(0, 3, 30))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(6, 40), st.integers(3, 5), st.integers(0, 1000))
    def test_property_balance_any_imbalance(self, n_major, n_minor, seed):
        rng = np.random.default_rng(seed)
        X, y = imbalanced(rng, n_major, n_minor)
        Xs, ys = smote(X, y, random_state=seed)
        counts = class_counts(ys)
        assert counts[0] == counts[1] == n_major


class TestRandomResampling:
    def test_oversample_balances_with_duplicates(self, rng):
        X, y = imbalanced(rng)
        Xs, ys = random_oversample(X, y, random_state=0)
        counts = class_counts(ys)
        assert counts[0] == counts[1]
        # Every synthetic row is an exact copy of a minority row.
        extra = Xs[len(X):]
        minority = {tuple(row) for row in X[y == 1]}
        assert all(tuple(row) in minority for row in extra)

    def test_undersample_balances_by_dropping(self, rng):
        X, y = imbalanced(rng)
        Xs, ys = random_undersample(X, y, random_state=0)
        counts = class_counts(ys)
        assert counts[0] == counts[1] == int(np.sum(y == 1))
        assert len(Xs) < len(X)


class TestStratifiedFolds:
    def test_folds_have_equal_sizes(self, rng):
        _, y = imbalanced(rng, 50, 20)
        fold_of = _stratified_fold_of(y, 5, shuffle=True, rng=np.random.default_rng(0))
        assert np.bincount(fold_of).tolist() == [14] * 5

    def test_class_ratio_preserved(self, rng):
        _, y = imbalanced(rng, 80, 40)
        fold_of = _stratified_fold_of(y, 4, shuffle=True, rng=np.random.default_rng(0))
        for fold in range(4):
            assert np.mean(y[fold_of == fold]) == pytest.approx(np.mean(y), abs=0.1)

    def test_too_few_samples_raises(self):
        y = np.r_[np.zeros(9, int), np.ones(3, int)]
        with pytest.raises(ValueError):
            _stratified_fold_of(y, 5, shuffle=True, rng=np.random.default_rng(0))


class TestCrossValidate:
    def test_fold_count(self, blobs):
        X, y = blobs
        result = cross_validate(
            DecisionTreeClassifier(max_depth=3), X, y, n_splits=5, random_state=0
        )
        assert len(result.fold_reports) == 5

    def test_repeats_multiply_folds(self, blobs):
        X, y = blobs
        result = cross_validate(
            LogisticRegression(), X, y, n_splits=4, n_repeats=3, random_state=0
        )
        assert len(result.fold_reports) == 12

    def test_smote_inside_folds(self, rng):
        X, y = imbalanced(rng, 100, 25)
        result = cross_validate(
            LogisticRegression(), X, y, n_splits=5, resample="smote", random_state=0
        )
        assert result.f1 > 0.7

    def test_summary_keys(self, blobs):
        X, y = blobs
        summary = cross_validate(
            LogisticRegression(), X, y, n_splits=3, random_state=0
        ).summary()
        assert {"precision", "recall", "f1", "auc", "fpr", "n_folds"} <= set(summary)

    def test_estimator_not_mutated(self, blobs):
        X, y = blobs
        proto = DecisionTreeClassifier(max_depth=2)
        cross_validate(proto, X, y, n_splits=3, random_state=0)
        assert not hasattr(proto, "tree_")

    def test_clone_copies_params(self):
        proto = DecisionTreeClassifier(max_depth=4, min_samples_leaf=3)
        copy = clone(proto)
        assert copy is not proto
        assert copy.get_params() == proto.get_params()

    def test_repr_lists_params_sorted(self):
        model = LogisticRegression(C=0.5, max_iter=7)
        assert repr(model) == "LogisticRegression(C=0.5, max_iter=7, tol=1e-08)"
