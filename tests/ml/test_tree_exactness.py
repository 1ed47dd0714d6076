"""Exactness checks: the split kernel, with each of its two gain
functions, against brute-force references on small random datasets, and
the stable partition of presorted row orders against fresh sorts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier, GradientBoostingClassifier, gradient_boosting
from repro.ml.tree import best_split, partition, presort
from tests.oracles import leaf_index


def _gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def brute_force_best_gini_split(X, y, n_classes):
    """O(n^2 d) reference: evaluate every midpoint of every feature."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_impurity = _gini(parent_counts)
    best = (-1, 0.0, 0.0)
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            left = y[X[:, feature] <= threshold]
            right = y[X[:, feature] > threshold]
            if len(left) == 0 or len(right) == 0:
                continue
            gini_left = _gini(np.bincount(left, minlength=n_classes).astype(float))
            gini_right = _gini(np.bincount(right, minlength=n_classes).astype(float))
            weighted = (len(left) * gini_left + len(right) * gini_right) / n
            gain = n * (parent_impurity - weighted)
            if gain > best[2] + 1e-12:
                best = (feature, threshold, gain)
    return best


def boost_split_gain(X, grad, hess, feature, threshold, reg_lambda, gamma, min_child_weight):
    """Second-order gain of one split by direct sums; ``None`` when a
    child's hessian mass is below ``min_child_weight``."""
    left = X[:, feature] <= threshold
    g_left, h_left = grad[left].sum(), hess[left].sum()
    g_right, h_right = grad[~left].sum(), hess[~left].sum()
    if h_left < min_child_weight or h_right < min_child_weight:
        return None
    g, h = grad.sum(), hess.sum()
    return 0.5 * (
        g_left**2 / (h_left + reg_lambda)
        + g_right**2 / (h_right + reg_lambda)
        - g**2 / (h + reg_lambda)
    ) - gamma


def brute_force_best_boost_split(X, grad, hess, reg_lambda, gamma, min_child_weight):
    best = (-1, 0.0, 0.0)
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            gain = boost_split_gain(
                X, grad, hess, feature, threshold, reg_lambda, gamma, min_child_weight
            )
            if gain is not None and gain > best[2] + 1e-12:
                best = (feature, threshold, gain)
    return best


class TestSplitExactness:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(6, 30), st.integers(1, 3), st.integers(2, 3))
    def test_classification_split_matches_brute_force(self, seed, n, d, n_classes):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, d)).round(1)  # rounding creates ties
        y = rng.integers(0, n_classes, n)
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), y] = 1.0
        slow = brute_force_best_gini_split(X, y, n_classes)
        cart = DecisionTreeClassifier()
        ((_, params),) = cart._node(onehot, [np.arange(n)])
        if params is None:  # a pure node never splits
            assert slow[0] == -1
            return
        (fast,) = best_split(
            X, onehot, presort(X).ravel(), np.arange(d), np.array([n]), np.array([params]),
            cart._gain,
        )
        assert fast[2] == pytest.approx(slow[2], abs=1e-9)
        if slow[0] >= 0:
            # Equal-gain ties may pick different features; the gains match.
            left_fast = np.sum(X[:, fast[0]] <= fast[1])
            assert 0 < left_fast < n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(6, 30), st.integers(1, 3))
    def test_boosting_split_matches_brute_force(self, seed, n, d):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, d)).round(1)  # rounding creates ties
        p = rng.uniform(0.05, 0.95, n)
        grad = p - rng.integers(0, 2, n)
        hess = p * (1.0 - p)
        # The booster's constants: lambda 1, gamma 0, child weight 1.
        params = {
            "reg_lambda": gradient_boosting.REG_LAMBDA,
            "gamma": 0.0,
            "min_child_weight": gradient_boosting.MIN_CHILD_WEIGHT,
        }
        booster = GradientBoostingClassifier()
        stats = np.column_stack([grad, hess])
        ((_, node_params),) = booster._node(stats, [np.arange(n)])
        slow = brute_force_best_boost_split(X, grad, hess, **params)
        if node_params is None:  # too little hessian mass for two children
            assert slow[0] == -1
            return
        (fast,) = best_split(
            X, stats, presort(X).ravel(), np.arange(d), np.array([n]), np.array([node_params]),
            booster._gain,
        )
        assert fast[2] == pytest.approx(slow[2], abs=1e-9)
        assert (fast[0] >= 0) == (slow[0] >= 0)
        if fast[0] >= 0:
            # The reported gain is the gain of the split returned, and
            # that split respects min_child_weight.
            realised = boost_split_gain(X, grad, hess, fast[0], fast[1], **params)
            assert realised == pytest.approx(fast[2], abs=1e-9)

    @pytest.mark.parametrize("ulps", [0, 3])
    def test_boosting_node_below_two_child_weights_stays_a_leaf(self, ulps):
        # Eight rows of hessian 1/4 hold exactly two child weights, and
        # the middle split leaves each child exactly one.  Take a few ulps
        # of 2 off the last row and no split can pass: the node is not
        # searched, and the brute force finds no split either.
        X = np.arange(8.0).reshape(-1, 1)
        grad = np.repeat([-0.5, 0.5], 4)
        hess = np.full(8, 0.25)
        hess[-1] -= ulps * np.spacing(1.0)
        assert hess.sum() == 2.0 - ulps * np.spacing(1.0)
        params = {
            "reg_lambda": gradient_boosting.REG_LAMBDA,
            "gamma": 0.0,
            "min_child_weight": gradient_boosting.MIN_CHILD_WEIGHT,
        }
        slow = brute_force_best_boost_split(X, grad, hess, **params)
        booster = GradientBoostingClassifier()
        stats = np.column_stack([grad, hess])
        ((_, node_params),) = booster._node(stats, [np.arange(8)])
        if ulps:
            assert node_params is None
            assert slow[0] == -1
            return
        (fast,) = best_split(
            X, stats, presort(X).ravel(), np.arange(1), np.array([8]), np.array([node_params]),
            booster._gain,
        )
        assert fast[:2] == slow[:2] == (0, 3.5)
        assert fast[2] == pytest.approx(slow[2], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(2, 3))
    def test_a_batch_finds_each_nodes_own_split(self, seed, n_nodes, n_classes):
        # Nodes searched together share one running sum of class counts;
        # each must still get exactly the split it gets searched alone.
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (30, 4)).round(1)
        onehot = np.eye(n_classes)[rng.integers(0, n_classes, 30)]
        cart = DecisionTreeClassifier()
        nodes = []
        for _ in range(n_nodes):
            rows = rng.integers(0, 30, int(rng.integers(2, 30)))
            ((_, params),) = cart._node(onehot, [rows])
            if params is not None:
                candidates = rng.choice(4, size=2, replace=False)
                ordered = [rows.take(X[rows, c].argsort(kind="mergesort")) for c in candidates]
                nodes.append((np.concatenate(ordered), candidates, rows.size, params))
        if not nodes:
            return
        ordered, candidates, sizes, params = zip(*nodes)
        batch = best_split(
            X, onehot, np.concatenate(ordered), np.concatenate(candidates), np.array(sizes),
            np.array(params), cart._gain,
        )
        alone = [
            best_split(X, onehot, *node[:2], np.array([node[2]]), np.array([node[3]]), cart._gain)[0]
            for node in nodes
        ]
        assert batch == alone

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_every_leaf_holds_a_training_row(self, seed):
        # Splits sit between distinct values, so no child is ever empty:
        # the Gini gain needs no guard against an empty side.
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (40, 3)).round(1)
        y = rng.integers(0, 2, 40)
        tree = DecisionTreeClassifier().fit(X, y).tree_
        leaves = np.unique(leaf_index(tree, X))
        assert np.array_equal(leaves, np.flatnonzero(tree.feature == -1))


class TestPartition:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 6), st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_child_orders_equal_fresh_stable_sorts(self, seed, n, d, n_values, depth):
        rng = np.random.default_rng(seed)
        # Few values per column, duplicated rows, and a node holding rows
        # drawn with replacement as a bootstrap sample draws them: heavy
        # ties and repeated row numbers.
        X = rng.integers(0, n_values, (n, d)).astype(np.float64)
        X = X[rng.integers(0, n, n)]
        rows = rng.integers(0, n, n)
        order = rows.take(presort(X.take(rows, axis=0)))
        for _ in range(depth):
            goes_left = rng.random(n) < 0.5
            children = partition(order, goes_left)
            side = goes_left.take(rows)
            child_rows = [rows.compress(side), rows.compress(~side)]
            for child_order, node_rows in zip(children, child_rows):
                fresh = [
                    node_rows.take(X[node_rows, f].argsort(kind="mergesort")) for f in range(d)
                ]
                assert child_order.shape == (d, node_rows.size)
                assert all(np.array_equal(a, b) for a, b in zip(child_order, fresh))
            pick = int(rng.integers(0, 2))
            order, rows = children[pick], child_rows[pick]
