"""Tests for RandomForestClassifier and GradientBoostingClassifier."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.gradient_boosting import GradientBoostingClassifier


class TestRandomForest:
    def test_accuracy_on_blobs(self, blobs):
        X, y = blobs
        model = RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y)
        assert model.score(X, y) >= 0.97

    def test_deterministic_given_seed(self, blobs):
        X, y = blobs
        a = RandomForestClassifier(n_estimators=15, random_state=7).fit(X, y)
        b = RandomForestClassifier(n_estimators=15, random_state=7).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))
        np.testing.assert_allclose(a.feature_importances_, b.feature_importances_)

    def test_different_seeds_differ(self, blobs):
        X, y = blobs
        a = RandomForestClassifier(n_estimators=5, random_state=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=2).fit(X, y)
        assert not np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_importances_normalized(self, blobs):
        X, y = blobs
        model = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_informative_feature_ranked_first(self, rng):
        signal = rng.normal(0, 1, 400)
        noise = rng.normal(0, 1, (400, 3))
        X = np.column_stack([noise[:, 0], signal, noise[:, 1:]])
        y = (signal > 0).astype(int)
        model = RandomForestClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert int(np.argmax(model.feature_importances_)) == 1

    def test_feature_count_validated_at_predict(self, blobs):
        X, y = blobs
        model = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="expected"):
            model.predict_proba(np.zeros((2, X.shape[1] + 1)))

    def test_proba_rows_sum_to_one(self, blobs):
        X, y = blobs
        proba = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


class TestGradientBoosting:
    def test_accuracy_on_blobs(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert model.score(X, y) >= 0.97

    def test_training_loss_decreases(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(
            n_estimators=30, learning_rate=0.2, random_state=0
        ).fit(X, y)
        losses = model.train_losses_
        assert losses[-1] < losses[0]
        # Log-loss under a second-order booster should be close to
        # monotone decreasing; allow tiny numerical wiggles.
        increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
        assert increases <= len(losses) // 10

    def test_regularization_shrinks_leaf_effect(self, blobs):
        X, y = blobs
        weak = GradientBoostingClassifier(
            n_estimators=10, reg_lambda=100.0, random_state=0
        ).fit(X, y)
        strong = GradientBoostingClassifier(
            n_estimators=10, reg_lambda=0.1, random_state=0
        ).fit(X, y)
        # Heavier L2 keeps the margin closer to the prior.
        assert np.abs(weak.decision_function(X)).mean() < np.abs(
            strong.decision_function(X)
        ).mean()

    def test_single_class_training_set(self):
        X = np.random.default_rng(0).normal(0, 1, (20, 3))
        model = GradientBoostingClassifier(n_estimators=5).fit(X, np.ones(20, int))
        assert (model.predict(X) == 1).all()

    def test_multiclass_rejected(self, rng):
        X = rng.normal(0, 1, (30, 2))
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(X, rng.integers(0, 3, 30))

    def test_gamma_prunes_splits(self, blobs):
        X, y = blobs
        free = GradientBoostingClassifier(n_estimators=5, gamma=0.0, random_state=0).fit(X, y)
        pruned = GradientBoostingClassifier(n_estimators=5, gamma=1e9, random_state=0).fit(X, y)

        def total_nodes(model):
            return sum(tree.n_nodes for tree in model.trees_)

        assert total_nodes(pruned) < total_nodes(free)

    def test_feature_count_validated_at_predict(self, rng):
        X = rng.normal(0, 1, (60, 3))
        model = GradientBoostingClassifier(n_estimators=3, random_state=0).fit(X, X[:, 0] > 0)
        for bad in (np.zeros((2, 4)), np.zeros((2, 1)), [0.0, 1.0]):
            with pytest.raises(ValueError, match="expected 3 features"):
                model.decision_function(bad)

    def test_feature_importances_focus_on_signal(self, rng):
        signal = rng.normal(0, 1, 300)
        X = np.column_stack([rng.normal(0, 1, 300), signal])
        y = (signal > 0).astype(int)
        model = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert model.feature_importances_[1] > 0.8

    def test_deterministic_given_seed(self, blobs):
        X, y = blobs
        a = GradientBoostingClassifier(n_estimators=10, subsample=0.7, random_state=3).fit(X, y)
        b = GradientBoostingClassifier(n_estimators=10, subsample=0.7, random_state=3).fit(X, y)
        np.testing.assert_allclose(a.decision_function(X), b.decision_function(X))

    def test_proba_bounds(self, blobs):
        X, y = blobs
        proba = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(X, y).predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
