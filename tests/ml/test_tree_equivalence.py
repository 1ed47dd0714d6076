"""The tree learners against their node-by-node oracles (``tests/oracles.py``).

One split kernel and one array descent replaced three split loops, two
node classes and three per-row walks, and the kernel now searches every
candidate feature at once over presorted row orders.  Every fitted tree
must keep the oracle's pre-order splits exactly, and every probability,
margin and importance must be equal byte for byte: the kernel, the
presort and the descent change no floating-point operation and no
random draw.
"""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, GradientBoostingClassifier, RandomForestClassifier
from repro.ml import gradient_boosting
from repro.ml import tree as tree_module
from tests import oracles


def make_data(seed: int, n_classes: int, decimals: int | None, n: int = 160, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    if decimals is not None:
        X = X.round(decimals)  # ties between rows
    score = X[:, 0] + 0.5 * X[:, 1] - 0.5 * X[:, 2] + rng.normal(0, 0.8, n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
    return X, y


def make_app_like(seed: int, n: int = 300, d: int = 14):
    """Shaped like the app dataset: integer columns of a few values each,
    most rows at 0, so most splits cut a few rows off a large node."""
    rng = np.random.default_rng(seed)
    at_zero = rng.uniform(0.5, 0.95, d)
    levels = rng.integers(2, 12, d)
    X = np.where(rng.random((n, d)) < at_zero, 0, rng.integers(1, levels, (n, d)))
    X = X.astype(np.float64)
    score = X[:, 0] + X[:, 1] - X[:, 2] + rng.normal(0, 1, n)
    y = (score > np.quantile(score, 0.8)).astype(np.intp)  # a 20% minority
    return X, y


DATASETS = [(seed, k, decimals) for seed in (0, 1) for k in (2, 3) for decimals in (None, 1)]
APP_LIKE_SEEDS = (0, 1)
# CART has no setting left to vary, so its grid varies the data: few rows
# and many, narrow and wide.
CART_SHAPES = [(160, 6), (48, 3), (250, 12), (90, 4)]
# The forest draws max(1, int(sqrt(d))) candidate features per node: 2,
# 1 and 4 of these widths.
FOREST_SHAPES = [(160, 6), (60, 3), (200, 16)]
BOOSTER_PARAMS = [
    {},
    {"max_depth": 5, "learning_rate": 0.15},
    {"max_depth": 2, "learning_rate": 0.3},
    {"max_depth": 1, "learning_rate": 0.5},
]


def splits(tree) -> list[tuple[int, float]]:
    return list(zip(tree.feature.tolist(), tree.threshold.tolist()))


def oracle_splits(root: oracles.Node) -> list[tuple[int, float]]:
    return [(node.feature, node.threshold) for node in root.preorder()]


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed,n_classes,decimals", DATASETS)
@pytest.mark.parametrize("n,d", CART_SHAPES)
def test_cart_matches_oracle(seed, n_classes, decimals, n, d):
    X, y = make_data(seed, n_classes, decimals, n, d)
    check_cart(X, y, n_classes)


@pytest.mark.parametrize("seed", APP_LIKE_SEEDS)
@pytest.mark.parametrize("n,d", [(300, 14), (120, 5)])
def test_cart_matches_oracle_on_app_like_data(seed, n, d):
    X, y = make_app_like(seed, n, d)
    check_cart(X, y, 2)


def check_cart(X, y, n_classes):
    # CART grows a full tree over every feature: the oracle's defaults.
    model = DecisionTreeClassifier().fit(X, y)
    oracle = oracles.GiniTree().fit(X, y, n_classes)
    assert splits(model.tree_) == oracle_splits(oracle.root)
    assert same_bytes(model.predict_proba(X), oracles.walk(oracle.root, X))
    assert same_bytes(model.feature_importances_, oracle.feature_importances)


@pytest.mark.parametrize("seed,n_classes,decimals", DATASETS)
@pytest.mark.parametrize("n,d", FOREST_SHAPES)
def test_forest_matches_oracle(seed, n_classes, decimals, n, d):
    X, y = make_data(seed, n_classes, decimals, n, d)
    check_forest(X, y, seed)


@pytest.mark.parametrize("seed", APP_LIKE_SEEDS)
def test_forest_matches_oracle_on_app_like_data(seed):
    X, y = make_app_like(seed)
    check_forest(X, y, seed)


def make_ragged(seed: int, n_classes: int, n: int = 40, d: int = 10):
    """App-like rows.  With two classes, class 1 holds two rows, so about
    one bootstrap sample in eight misses it and grows a one-leaf tree
    beside deep ones; with three, the classes are random."""
    X, _ = make_app_like(seed, n, d)
    rng = np.random.default_rng(seed)
    if n_classes == 2:
        y = np.zeros(n, dtype=np.intp)
        y[rng.choice(n, size=2, replace=False)] = 1
    else:
        y = rng.integers(0, n_classes, n)
    return X, y


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("n_classes,budget", [(2, 1000), (2, 300), (3, 1000)])
def test_ragged_forest_in_chunks_matches_oracle(monkeypatch, seed, n_classes, budget):
    # Trees of very different sizes grow in lockstep, and a small element
    # budget cuts every wide step into several batches of nodes: a root
    # is 40 rows by 3 candidate features, so 8 or 2 roots per batch.
    batches = []
    real = tree_module.best_split

    def recording(X, stats, rows, features, sizes, params, gain):
        batches.append(sizes.size)
        return real(X, stats, rows, features, sizes, params, gain)

    monkeypatch.setattr(tree_module, "best_split", recording)
    monkeypatch.setattr(tree_module, "CHUNK_ELEMENTS", budget)
    X, y = make_ragged(seed, n_classes)
    model = RandomForestClassifier(n_estimators=40, random_state=seed).fit(X, y)
    node_counts = [tree.feature.size for tree in model.trees_]
    assert max(node_counts) >= 7
    if n_classes == 2:
        assert min(node_counts) == 1
    assert batches[0] == budget // 120  # the first step, 40 roots, is cut
    assert max(batches[1:]) > 1
    check_forest(X, y, seed, n_estimators=40, model=model)


def check_forest(X, y, seed, n_estimators=8, model=None):
    if model is None:
        model = RandomForestClassifier(n_estimators=n_estimators, random_state=seed)
        model.fit(X, y)
    # Bootstrapped full trees, sqrt(d) candidate features per node.
    oracle = oracles.Forest(n_estimators=n_estimators, random_state=seed, max_features="sqrt")
    oracle.fit(X, y)
    for tree, oracle_tree in zip(model.trees_, oracle.trees, strict=True):
        assert splits(tree) == oracle_splits(oracle_tree.root)
    assert same_bytes(model.predict_proba(X), oracle.predict_proba(X))
    assert same_bytes(model.feature_importances_, oracle.feature_importances)


@pytest.mark.parametrize("seed,decimals", [(seed, decimals) for seed in (0, 1, 2) for decimals in (None, 1)])
@pytest.mark.parametrize("params", BOOSTER_PARAMS)
def test_booster_matches_oracle(seed, decimals, params):
    X, y = make_data(seed, 2, decimals)
    check_booster(X, y, seed, params)


@pytest.mark.parametrize("seed", APP_LIKE_SEEDS)
@pytest.mark.parametrize("params", BOOSTER_PARAMS)
def test_booster_matches_oracle_on_app_like_data(seed, params):
    X, y = make_app_like(seed)
    check_booster(X, y, seed, params)


def check_booster(X, y, seed, params):
    # The oracle's defaults are the booster's constants: lambda 1, gamma
    # 0, child weight 1, base score 0.5, every row and feature per round.
    model = GradientBoostingClassifier(n_estimators=12, **params).fit(X, y)
    oracle = oracles.Booster(n_estimators=12, random_state=seed, **params).fit(X, y)
    for tree, oracle_tree in zip(model.trees_, oracle.trees, strict=True):
        assert splits(tree) == oracle_splits(oracle_tree.root)
    assert same_bytes(model.decision_function(X), oracle.decision_function(X))
    assert same_bytes(model.feature_importances_, oracle.feature_importances)


def test_booster_sorts_its_matrix_once_per_fit(monkeypatch):
    # Every round searches every feature of the same X, so one presort
    # serves the whole fit; no round and no node sorts again.
    calls = []
    real = tree_module.presort

    def counting(X):
        calls.append(X.shape)
        return real(X)

    monkeypatch.setattr(tree_module, "presort", counting)
    monkeypatch.setattr(gradient_boosting, "presort", counting)
    X, y = make_app_like(0)
    GradientBoostingClassifier(n_estimators=12).fit(X, y)
    assert calls == [X.shape]
