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
        model = GradientBoostingClassifier(n_estimators=40).fit(X, y)
        assert model.score(X, y) >= 0.97

    def test_training_loss_decreases(self, blobs):
        # A fit of n rounds is the first n rounds of a longer fit, so the
        # training log-loss at growing n_estimators traces one fit's.
        X, y = blobs
        losses = []
        for n_estimators in (1, 2, 5, 10, 20, 30):
            model = GradientBoostingClassifier(n_estimators=n_estimators, learning_rate=0.2)
            p = np.clip(model.fit(X, y).predict_proba(X)[:, 1], 1e-12, 1 - 1e-12)
            losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    @pytest.mark.parametrize("max_depth", [1, 2, 4])
    def test_trees_respect_max_depth(self, blobs, max_depth):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=5, max_depth=max_depth).fit(X, y)
        assert max(tree.depth for tree in model.trees_) == max_depth

    def test_single_class_training_set(self):
        X = np.random.default_rng(0).normal(0, 1, (20, 3))
        model = GradientBoostingClassifier(n_estimators=5).fit(X, np.ones(20, int))
        assert (model.predict(X) == 1).all()

    def test_multiclass_rejected(self, rng):
        X = rng.normal(0, 1, (30, 2))
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(X, rng.integers(0, 3, 30))

    def test_feature_count_validated_at_predict(self, rng):
        X = rng.normal(0, 1, (60, 3))
        model = GradientBoostingClassifier(n_estimators=3).fit(X, X[:, 0] > 0)
        for bad in (np.zeros((2, 4)), np.zeros((2, 1)), [0.0, 1.0]):
            with pytest.raises(ValueError, match="expected 3 features"):
                model.decision_function(bad)

    def test_every_round_splits_on_the_signal(self, rng):
        signal = rng.normal(0, 1, 300)
        X = np.column_stack([rng.normal(0, 1, 300), signal])
        y = (signal > 0).astype(int)
        model = GradientBoostingClassifier(n_estimators=20).fit(X, y)
        assert [tree.feature[0] for tree in model.trees_] == [1] * 20

    def test_refit_is_byte_identical(self, blobs):
        # Every round uses every row and every feature: no random draw.
        X, y = blobs
        a = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        b = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        assert a.decision_function(X).tobytes() == b.decision_function(X).tobytes()

    def test_proba_bounds(self, blobs):
        X, y = blobs
        proba = GradientBoostingClassifier(n_estimators=20).fit(X, y).predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
