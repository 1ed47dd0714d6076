"""Tests for the CART trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeClassifier, descend


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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_full_tree_separates_every_distinct_value(self, seed):
        # No depth or leaf limit: on one feature an impure node can always
        # cut off a single row and gain, so random labels fit exactly.
        rng = np.random.default_rng(seed)
        X = rng.permutation(60).astype(np.float64)[:, None]
        y = rng.integers(0, 3, 60)
        assert DecisionTreeClassifier().fit(X, y).score(X, y) == 1.0

    def test_pure_node_is_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_.feature.size == 1 and tree.tree_.depth == 0

    def test_importances_sum_to_one(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier().fit(X, y)
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
        proba = DecisionTreeClassifier().fit(X, y).predict_proba(X)
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
        # A bootstrap sample holding only class 1 must still vote class 1,
        # beside a tree whose sample holds both classes.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        encoded = np.array([0, 0, 1, 1])
        samples = [np.array([2, 3, 3, 2]), np.array([0, 1, 2, 3])]
        (pure, _), (mixed, _) = DecisionTreeClassifier()._grow(X, encoded, 2, samples, None, 1)
        np.testing.assert_array_equal(next(descend([pure], X[2:], 1)), [[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(next(descend([mixed], X, 1)), np.eye(2)[encoded])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.array([[np.nan], [1.0]]), [0, 1])
