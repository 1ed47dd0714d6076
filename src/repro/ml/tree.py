"""CART classification trees, and the split kernel and tree layout that
every tree learner shares.

:func:`best_split` is the one split search in :mod:`repro.ml`.  It takes
the node's rows already sorted by each candidate feature and searches all
candidates in one pass: it finds every position between two distinct
values, cumulates a per-row statistics matrix along each order, scores
every such position of every candidate with one call of a gain function,
and puts the threshold at the midpoint of the best one.  Splits are
exact: for the dataset sizes in this reproduction (thousands of rows,
tens of features) every midpoint is cheap to score and there is no
discretisation error.  Two gain functions plug into it: the Gini gain
over one-hot class counts here, and the booster's second-order gain over
``[grad, hess]`` in :mod:`repro.ml.gradient_boosting`.

:func:`grow` grows one tree depth-first in pre-order around the kernel.
Where every node searches every feature, it sorts the columns once
(:func:`presort`) and hands each child its rows' orders by a stable
:func:`partition` of its parent's, the column-block reuse of XGBoost's
exact greedy algorithm (Chen & Guestrin, KDD 2016, §4.1); where nodes
sample features, each node sorts only its candidates.  Every fitted tree
-- a CART tree, a Random Forest member, a boosting round -- is a
:class:`Tree` of flat arrays that :func:`descend` predicts.  The
classifier records per-feature *mean decrease in Gini* importances,
which is exactly the importance measure the paper uses for Figures 13
and 14.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y

__all__ = [
    "DecisionTreeClassifier", "Tree", "best_split", "descend", "grow", "partition", "presort",
]

#: Maps the cumulative statistics left of each candidate split to its gain.
GainFunction = Callable[[np.ndarray], np.ndarray]


class Tree:
    """A fitted binary tree as flat pre-order arrays.

    Node 0 is the root.  Internal node ``i`` sends a row with
    ``x[feature[i]] <= threshold[i]`` to ``left[i]`` and any other row to
    ``right[i]``.  A leaf has ``feature == -1`` and both children pointing
    back at itself, so a descent needs no leaf test: ``depth`` steps take
    every row to its leaf.  ``value[i]`` is what node ``i`` predicts.
    """

    def __init__(self, feature, threshold, left, right, value, depth: int) -> None:
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.depth = depth

    @classmethod
    def build(cls, root: object, expand: Callable[[object], tuple]) -> "Tree":
        """Lay a tree out depth-first, in pre-order, starting from ``root``.

        ``expand(item)`` returns ``(value, None)`` for a leaf and ``(value,
        (feature, threshold, left_item, right_item))`` for a split; each
        item is expanded before anything below it.
        """
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[object] = []
        depth = 0

        def visit(item: object, level: int) -> None:
            nonlocal depth
            depth = max(depth, level)
            i = len(feature)
            node_value, split = expand(item)
            feature.append(-1)
            threshold.append(0.0)
            left.append(i)
            right.append(i)
            value.append(node_value)
            if split is not None:
                feature[i], threshold[i], left_item, right_item = split
                left[i] = len(feature)
                visit(left_item, level + 1)
                right[i] = len(feature)
                visit(right_item, level + 1)

        visit(root, 0)
        return cls(feature, threshold, left, right, value, depth)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])


def descend(trees: Sequence[Tree], X: np.ndarray, n_features: int) -> Iterator[np.ndarray]:
    """Yield, tree by tree, the leaf value every row of ``X`` reaches.

    The one predict path for every tree learner.  ``X`` is a matrix that
    :func:`check_array` has already accepted; its column count is checked
    here, once per call whatever the number of trees.
    """
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    rows = np.arange(X.shape[0])
    for tree in trees:
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(tree.depth):
            # A row already at a leaf reads column -1 and stays put.
            go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
            node = np.where(go_left, tree.left[node], tree.right[node])
        yield tree.value[node]


def presort(X: np.ndarray) -> np.ndarray:
    """Each column's rows in stable ascending order: row ``f`` of the
    ``(F, n)`` result sorts column ``f`` of ``X``."""
    return X.T.argsort(axis=1, kind="mergesort")


def partition(order: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide a node's ``(F, n)`` column orders between its two children.

    Returns the orders of the rows where ``mask`` holds and of the rest,
    each renumbered to its child's rows.  A child keeps its rows in the
    parent's order (``compress``), so its stable order of a column is the
    subsequence of the parent's that falls in it: nothing is sorted again.
    """
    goes_left = mask.take(order)
    rank = mask.cumsum()  # left rows up to and including each row
    child_row = np.where(mask, rank - 1, np.arange(mask.size) - rank)
    n_features = order.shape[0]
    return (
        child_row.take(order[goes_left]).reshape(n_features, -1),
        child_row.take(order[~goes_left]).reshape(n_features, -1),
    )


def best_split(
    X: np.ndarray,
    stats: np.ndarray,
    order: np.ndarray,
    feature_ids: np.ndarray,
    gain: GainFunction,
) -> tuple[int, float, float]:
    """Search ``feature_ids`` for the split with the largest gain.

    ``order[c]`` lists the node's rows in stable ascending order of column
    ``feature_ids[c]``, and ``stats`` holds one row of additive statistics
    per row of the node.  One ``gain`` call scores every candidate: it
    receives the cumulative sums at each position after which a
    candidate's sorted value changes, and returns each position's gain,
    ``-inf`` where a child would be too small.  Candidates are then taken
    in order, each at its first maximum, and one is kept when it beats
    the best so far by more than ``1e-12``.  Returns ``(feature,
    threshold, gain)`` with the threshold at the midpoint; ``feature ==
    -1`` means no split gains more than zero.
    """
    n = order.shape[1]
    # Methods and ``take`` rather than numpy functions and fancy indexing:
    # most nodes are small, so call overhead dominates.
    values = X.take(order * X.shape[1] + feature_ids[:, None])  # (C, n)
    candidate, position = (values[:, 1:] != values[:, :-1]).nonzero()  # left size position + 1
    if position.size == 0:
        return -1, 0.0, 0.0
    cumulative = stats.take(order, axis=0).cumsum(axis=1).reshape(-1, stats.shape[1])
    gains = gain(cumulative.take(candidate * n + position, axis=0))
    # Boundaries come feature-major, so each candidate's gains are one run.
    run_starts = (candidate[1:] != candidate[:-1]).nonzero()[0] + 1
    edges = [0, *run_starts.tolist(), gains.size]
    winner, best_gain = -1, 0.0
    for run, run_gain in enumerate(np.maximum.reduceat(gains, edges[:-1]).tolist()):
        if run_gain > best_gain + 1e-12:
            winner, best_gain = run, run_gain
    if winner < 0:
        return -1, 0.0, 0.0
    start, stop = edges[winner], edges[winner + 1]
    i = start + int(gains[start:stop].argmax())
    c, pos = candidate[i], position[i]
    threshold = float((values[c, pos] + values[c, pos + 1]) / 2.0)
    return int(feature_ids[c]), threshold, best_gain


def grow(
    X: np.ndarray,
    stats: np.ndarray,
    node: Callable[[np.ndarray], tuple[object, GainFunction | None]],
    max_depth: int | None,
    n_candidates: int,
    rng: np.random.Generator,
    order: np.ndarray | None = None,
) -> tuple[Tree, list[tuple[int, float]]]:
    """Grow one tree depth-first, in pre-order, with :func:`best_split`.

    ``node(stats)`` returns a node's value and its gain function, or
    ``None`` for a node that must stay a leaf.  Each node that may split
    draws ``n_candidates`` features from ``rng`` and sorts just those
    columns.  When that is every feature, nothing is drawn and nothing
    below the root is sorted: the root's column orders are ``order``
    (:func:`presort` of ``X`` when not given), and every split hands its
    children theirs through :func:`partition`.  Returns the tree and its
    splits' ``(feature, gain)`` pairs in pre-order, the order importances
    accumulate in.
    """
    n_features = X.shape[1]
    every_feature = n_candidates >= n_features
    if every_feature:
        feature_ids = np.arange(n_features)
        if order is None:
            order = presort(X)
    splits: list[tuple[int, float]] = []

    def expand(item: tuple[np.ndarray, np.ndarray, np.ndarray | None, int]) -> tuple:
        X, stats, order, depth = item
        node_value, gain = node(stats)
        if gain is None or (max_depth is not None and depth >= max_depth):
            return node_value, None
        if every_feature:
            candidates = feature_ids
        else:
            candidates = rng.choice(n_features, size=n_candidates, replace=False)
            order = presort(X.take(candidates, axis=1))
        feature, threshold, split_gain = best_split(X, stats, order, candidates, gain)
        if feature < 0:
            return node_value, None
        splits.append((feature, split_gain))
        mask = X[:, feature] <= threshold
        child_orders = partition(order, mask) if every_feature else (None, None)
        below = [
            (X.compress(rows, axis=0), stats.compress(rows, axis=0), child_order, depth + 1)
            for rows, child_order in zip((mask, ~mask), child_orders)
        ]
        return node_value, (feature, threshold, *below)

    return Tree.build((X, stats, order, 0), expand), splits


def _gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART classifier with Gini impurity and exact splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until pure or exhausted.
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples that must land in each child.
    max_features:
        Number of features sampled per split: ``None`` (all), an int,
        a float fraction, or ``"sqrt"`` / ``"log2"`` (used by forests).
    random_state:
        Seed for per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # -- fitting -----------------------------------------------------------
    def fit(self, X, y, sample_classes: int | None = None) -> "DecisionTreeClassifier":
        """Grow the tree.

        A forest passes labels it has already encoded as ``0..K-1``
        together with ``sample_classes=K``; they are used as class
        indices as they are, so a bootstrap sample that misses a class
        keeps every class in its own column.
        """
        X, y = check_X_y(X, y)
        if sample_classes is None:
            encoded = self._encode_labels(y)
        else:
            self.classes_, encoded = np.arange(sample_classes), y
        self.n_classes_ = len(self.classes_)
        self.n_features_ = X.shape[1]
        # One-hot encode labels once per fit; growth slices this matrix
        # down alongside X instead of rebuilding it at every node.
        onehot = np.zeros((X.shape[0], self.n_classes_), dtype=np.float64)
        onehot[np.arange(X.shape[0]), encoded] = 1.0
        self.tree_, splits = grow(
            X, onehot, self._node, self.max_depth, self._resolve_max_features(),
            check_random_state(self.random_state),
        )
        self._importances = np.zeros(self.n_features_, dtype=np.float64)
        for feature, gain in splits:
            # Mean decrease in Gini: impurity decrease weighted by the
            # fraction of training samples that reach the node.
            self._importances[feature] += gain / X.shape[0]
        return self

    def _resolve_max_features(self) -> int:
        m = self.max_features
        if m is None:
            return self.n_features_
        if m == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if m == "log2":
            return max(1, int(np.log2(self.n_features_)))
        if isinstance(m, float):
            return max(1, int(m * self.n_features_))
        return max(1, min(int(m), self.n_features_))

    def _node(self, onehot: np.ndarray) -> tuple[np.ndarray, GainFunction | None]:
        """Class proportions of a node, and its Gini gain unless it stays a leaf.

        The gain is the *unnormalised* impurity decrease ``N *
        (impurity_parent - weighted child impurity)``, so that summing
        gains over a tree matches the classic mean-decrease-in-Gini
        totals.
        """
        n = onehot.shape[0]
        counts = onehot.sum(axis=0)
        proportions = counts / counts.sum()
        if n < self.min_samples_split or np.count_nonzero(counts) < 2:  # pure
            return proportions, None
        impurity = _gini(counts)

        def gain(left: np.ndarray) -> np.ndarray:
            right = counts - left
            n_left = left.sum(axis=1)
            n_right = right.sum(axis=1)
            gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
            weighted = (n_left * gini_left + n_right * gini_right) / n
            gains = n * (impurity - weighted)
            valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            gains[~valid] = -np.inf
            return gains

        return proportions, gain

    # -- prediction --------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        return next(descend([self.tree_], check_array(X), self.n_features_))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean decrease in Gini, normalised to sum to 1 (when nonzero)."""
        total = self._importances.sum()
        if total == 0.0:
            return self._importances.copy()
        return self._importances / total
