"""The tree learners against their node-by-node oracles (``tests/oracles.py``).

One split kernel and one array descent replaced three split loops, two
node classes and three per-row walks.  Every fitted tree must keep the
oracle's pre-order splits exactly, and every probability, margin and
importance must be equal byte for byte: the kernel and the descent
change no floating-point operation and no random draw.
"""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, GradientBoostingClassifier, RandomForestClassifier
from tests import oracles


def make_data(seed: int, n_classes: int, decimals: int | None, n: int = 160, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    if decimals is not None:
        X = X.round(decimals)  # ties between rows
    score = X[:, 0] + 0.5 * X[:, 1] - 0.5 * X[:, 2] + rng.normal(0, 0.8, n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
    return X, y


DATASETS = [(seed, k, decimals) for seed in (0, 1) for k in (2, 3) for decimals in (None, 1)]


def splits(tree) -> list[tuple[int, float]]:
    return list(zip(tree.feature.tolist(), tree.threshold.tolist()))


def oracle_splits(root: oracles.Node) -> list[tuple[int, float]]:
    return [(node.feature, node.threshold) for node in root.preorder()]


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed,n_classes,decimals", DATASETS)
@pytest.mark.parametrize(
    "params",
    [
        {},
        {"max_depth": 3},
        {"min_samples_leaf": 4, "min_samples_split": 9},
        {"max_features": "sqrt", "random_state": 7},
    ],
)
def test_cart_matches_oracle(seed, n_classes, decimals, params):
    X, y = make_data(seed, n_classes, decimals)
    model = DecisionTreeClassifier(**params).fit(X, y)
    oracle = oracles.GiniTree(**params).fit(X, y, n_classes)
    assert splits(model.tree_) == oracle_splits(oracle.root)
    assert same_bytes(model.predict_proba(X), oracles.walk(oracle.root, X))
    assert same_bytes(model.feature_importances_, oracle.feature_importances)


@pytest.mark.parametrize("seed,n_classes,decimals", DATASETS)
@pytest.mark.parametrize(
    "params",
    [
        {},
        {"bootstrap": False, "max_depth": 4},
        {"min_samples_leaf": 3, "max_features": 0.5},
    ],
)
def test_forest_matches_oracle(seed, n_classes, decimals, params):
    X, y = make_data(seed, n_classes, decimals)
    model = RandomForestClassifier(n_estimators=8, random_state=seed, **params).fit(X, y)
    oracle = oracles.Forest(n_estimators=8, random_state=seed, **{"max_features": "sqrt", **params})
    oracle.fit(X, y)
    for tree, oracle_tree in zip(model.estimators_, oracle.trees, strict=True):
        assert splits(tree.tree_) == oracle_splits(oracle_tree.root)
    assert same_bytes(model.predict_proba(X), oracle.predict_proba(X))
    assert same_bytes(model.feature_importances_, oracle.feature_importances)
    if model.bootstrap:
        assert model.oob_score() == oracle.oob_score()


@pytest.mark.parametrize("seed,decimals", [(seed, decimals) for seed in (0, 1, 2) for decimals in (None, 1)])
@pytest.mark.parametrize(
    "params",
    [
        {},
        {"subsample": 0.7, "colsample_bytree": 0.5},
        {"gamma": 0.5, "min_child_weight": 2.0, "max_depth": 5},
        {"reg_lambda": 0.0, "min_child_weight": 1.5, "subsample": 0.8},
    ],
)
def test_booster_matches_oracle(seed, decimals, params):
    X, y = make_data(seed, 2, decimals)
    model = GradientBoostingClassifier(n_estimators=12, random_state=seed, **params).fit(X, y)
    oracle = oracles.Booster(n_estimators=12, random_state=seed, **params).fit(X, y)
    for tree, oracle_tree in zip(model.trees_, oracle.trees, strict=True):
        assert splits(tree) == oracle_splits(oracle_tree.root)
    assert model.train_losses_ == oracle.train_losses
    assert same_bytes(model.decision_function(X), oracle.decision_function(X))
    assert same_bytes(model.feature_importances_, oracle.feature_importances)
