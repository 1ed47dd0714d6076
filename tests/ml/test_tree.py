"""Tests for the CART trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import _fit_tree
from repro.ml.tree import DecisionTreeClassifier
from tests.oracles import leaf_index


class TestDecisionTreeClassifier:
    def test_memorizes_training_data(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier().fit(X, y)
        # Unlimited depth on continuous features separates everything.
        assert tree.score(X, y) >= 0.99

    def test_axis_aligned_split_found_exactly(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_.feature[0] == 0
        assert tree.tree_.threshold[0] == pytest.approx(1.5)
        assert (tree.predict([[1.4], [1.6]]) == [0, 1]).all()

    def test_max_depth_limits_tree(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.tree_.depth <= 2

    def test_min_samples_leaf_respected(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)
        _, leaf_sizes = np.unique(leaf_index(tree.tree_, X), return_counts=True)
        assert leaf_sizes.min() >= 20

    def test_pure_node_is_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_.n_nodes == 1 and tree.tree_.depth == 0

    def test_importances_sum_to_one(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)
        assert (tree.feature_importances_ >= 0).all()

    def test_irrelevant_feature_gets_no_importance(self, rng):
        signal = rng.normal(0, 1, 300)
        noise = np.zeros(300)  # constant column can never split
        X = np.column_stack([signal, noise])
        y = (signal > 0).astype(int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.feature_importances_[1] == 0.0

    def test_predict_proba_rows_sum_to_one(self, blobs):
        X, y = blobs
        proba = DecisionTreeClassifier(max_depth=3).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_string_labels_roundtrip(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["benign", "benign", "fraud", "fraud"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) == {"benign", "fraud"}

    def test_feature_count_validated_at_predict(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, X.shape[1] + 1)))

    def test_forest_label_codes_are_class_columns(self):
        # A bootstrap sample holding only class 1 must still vote class 1.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        encoded = np.array([0, 0, 1, 1])
        tree = _fit_tree(X, encoded, np.array([2, 3, 3, 2]), seed=0, params={}, n_classes=2)
        np.testing.assert_array_equal(tree.predict_proba(X[2:]), [[0.0, 1.0], [0.0, 1.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.array([[np.nan], [1.0]]), [0, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6))
    def test_deeper_trees_never_fit_worse(self, depth):
        rng = np.random.default_rng(depth)
        X = rng.normal(0, 1, (200, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        shallow = DecisionTreeClassifier(max_depth=depth).fit(X, y).score(X, y)
        deeper = DecisionTreeClassifier(max_depth=depth + 2).fit(X, y).score(X, y)
        assert deeper >= shallow - 1e-12
