"""Tests for permutation importance and grid search."""

import numpy as np
import pytest

from repro.ml import KNeighborsClassifier, LogisticRegression, RandomForestClassifier
from repro.ml.inspection import permutation_importance
from repro.ml.metrics import f1_score
from repro.ml.tuning import grid_search


class TestPermutationImportance:
    def test_signal_feature_ranked_first(self, rng):
        signal = rng.normal(0, 1, 400)
        noise = rng.normal(0, 1, (400, 3))
        X = np.column_stack([noise[:, 0], signal, noise[:, 1:]])
        y = (signal > 0).astype(int)
        model = RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y)
        result = permutation_importance(model, X, y, n_repeats=3, random_state=0)
        assert int(np.argmax(result.importances_mean)) == 1

    def test_one_predict_per_feature_scores_every_copy_as_alone(self, rng):
        # The stacked copies of a feature must score, byte for byte, as
        # when each shuffled copy was predicted on its own.
        signal = rng.normal(0, 1, 200)
        X = np.column_stack([signal + rng.normal(0, 1, 200), rng.normal(0, 1, (200, 2))])
        y = (signal > 0).astype(int)
        model = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        draws = np.random.default_rng(3)
        baseline = f1_score(y, model.predict(X))
        drops = np.zeros((X.shape[1], 3))
        for feature in range(X.shape[1]):
            for repeat in range(3):
                shuffled = X.copy()
                shuffled[:, feature] = draws.permutation(shuffled[:, feature])
                drops[feature, repeat] = baseline - f1_score(y, model.predict(shuffled))
        result = permutation_importance(model, X, y, n_repeats=3, random_state=3)
        assert np.count_nonzero(drops) > 0
        assert result.importances_mean.tobytes() == drops.mean(axis=1).tobytes()
        assert result.importances_std.tobytes() == drops.std(axis=1).tobytes()

    def test_noise_features_near_zero(self, rng):
        signal = rng.normal(0, 1, 300)
        X = np.column_stack([signal, rng.normal(0, 1, 300)])
        y = (signal > 0).astype(int)
        model = LogisticRegression().fit(X, y)
        result = permutation_importance(model, X, y, n_repeats=5, random_state=0)
        assert abs(result.importances_mean[1]) < 0.1
        assert result.importances_mean[0] > 0.2

    def test_ranking_helper(self, blobs):
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        result = permutation_importance(model, X, y, n_repeats=2, random_state=0)
        ranking = result.ranking([f"f{i}" for i in range(X.shape[1])])
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)

    def test_baseline_score_recorded(self, blobs):
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        result = permutation_importance(model, X, y, random_state=0)
        assert 0.9 <= result.baseline_score <= 1.0


class TestGridSearch:
    def test_knn_k_sweep_structure(self, blobs):
        """The paper's 'KNN achieved best performance for K = 5' sweep."""
        X, y = blobs
        result = grid_search(KNeighborsClassifier(), {"n_neighbors": [1, 5, 25]}, X, y)
        assert len(result.entries) == 3
        f1s = [cv.f1 for _, cv in result.entries]
        assert f1s == sorted(f1s, reverse=True)
        assert result.best_params["n_neighbors"] in (1, 5, 25)

    def test_multi_parameter_grid(self, blobs):
        X, y = blobs
        result = grid_search(
            RandomForestClassifier(),
            {"n_estimators": [3, 10], "random_state": [0, 1]},
            X, y,
        )
        assert len(result.entries) == 4
        assert set(result.best_params) == {"n_estimators", "random_state"}

    def test_best_result_matches_best_params(self, blobs):
        X, y = blobs
        result = grid_search(KNeighborsClassifier(), {"n_neighbors": [1, 15]}, X, y)
        best_params, _ = max(result.entries, key=lambda entry: entry[1].f1)
        assert result.best_params == best_params
