"""CART classification trees, and the split search, the grower and the
tree layout that every tree learner shares.

:func:`best_split` is the one split search in :mod:`repro.ml`.  It takes
a batch of nodes, each with its rows already sorted by each of its
candidate features, and searches every candidate of every node in one
pass: it finds every position between two distinct values, cumulates a
per-row statistics matrix along each order, scores every such position
with one call of a gain function, and puts each node's threshold at the
midpoint of its best one.  Splits are exact: for the dataset sizes in
this reproduction (thousands of rows, tens of features) every midpoint is
cheap to score and there is no discretisation error.  Two gain functions
plug into it: the Gini gain over one-hot class counts here, and the
booster's second-order gain over ``[grad, hess]`` in
:mod:`repro.ml.gradient_boosting`.

:func:`grow` grows a list of trees in lockstep around the search.  At
each step it takes the next node of every unfinished tree and searches
them together, while each tree still grows depth-first in its own
pre-order and draws its candidate features from its own generator: a
forest passes all its trees, CART and each boosting round pass one.
Where every node searches every feature, each tree sorts its columns
once (:func:`presort`) and hands each child its rows' orders by a stable
:func:`partition` of its parent's, the column-block reuse of XGBoost's
exact greedy algorithm (Chen & Guestrin, KDD 2016, §4.1); where nodes
sample features, one integer sort orders the sampled columns of every
node searched together.  Every fitted tree -- a CART tree, a Random
Forest member, a boosting round -- is a :class:`Tree` of flat arrays that
:func:`descend` predicts.  The classifier records per-feature *mean
decrease in Gini* importances, which is exactly the importance measure
the paper uses for Figures 13 and 14.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y

__all__ = [
    "DecisionTreeClassifier", "Tree", "best_split", "descend", "grow", "partition", "presort",
]

#: The most (candidate feature, row) elements one :func:`best_split` call
#: searches: a step of :func:`grow` with more is searched in several
#: calls, which bounds the memory of a forest's widest steps.
CHUNK_ELEMENTS = 1 << 14

#: Maps the cumulative statistics left of each candidate split, and the
#: gain parameters of the node it splits (one row each), to its gain.
GainFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: Maps a node's rows of statistics to its value and its gain parameters,
#: ``None`` for a node that must stay a leaf.
NodeFunction = Callable[[np.ndarray], tuple[object, Sequence[float] | None]]


class Tree:
    """A fitted binary tree as flat pre-order arrays.

    Node 0 is the root.  Internal node ``i`` sends a row with
    ``x[feature[i]] <= threshold[i]`` to ``left[i]`` and any other row to
    ``right[i]``; ``children`` interleaves the two, so the row goes to
    ``children[2 * i + (x > threshold[i])]``.  A leaf has ``feature ==
    -1`` and both children pointing back at itself, so a descent needs no
    leaf test: ``depth`` steps take every row to its leaf.  ``value[i]`` is
    what node ``i`` predicts.
    """

    def __init__(self, feature, threshold, left, right, value, depth: int) -> None:
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.children = np.array((self.left, self.right)).T.ravel()
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


def descend(trees: Sequence[Tree], X: np.ndarray, n_features: int) -> Iterator[np.ndarray]:
    """Yield, tree by tree, the leaf value every row of ``X`` reaches.

    The one predict path for every tree learner.  ``X`` is a matrix that
    :func:`check_array` has already accepted, so no value is NaN and
    ``x > threshold`` sends a row right exactly when ``x <= threshold``
    does not; its column count is checked here, once per call whatever
    the number of trees.
    """
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    cells = X.ravel()
    row_start = np.arange(X.shape[0]) * n_features
    for tree in trees:
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(tree.depth):
            # A row already at a leaf reads column -1, a cell of another
            # row, and stays put: both of a leaf's children are itself.
            x = cells.take(row_start + tree.feature.take(node))
            node = tree.children.take(2 * node + (x > tree.threshold.take(node)))
        yield tree.value.take(node, axis=0)


def presort(X: np.ndarray) -> np.ndarray:
    """Each column's rows in stable ascending order: row ``f`` of the
    ``(F, n)`` result sorts column ``f`` of ``X``."""
    return X.T.argsort(axis=1, kind="mergesort")


def partition(order: np.ndarray, goes_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide a node's ``(F, n)`` column orders between its two children.

    ``order`` holds row numbers and ``goes_left`` says, for every row
    number, whether the row goes to the left child.  Returns the left
    child's orders and the right child's: each column's stable order in a
    child is the subsequence of its parent's that falls in it, so nothing
    is sorted again.
    """
    left = goes_left.take(order)
    n_features = order.shape[0]
    return order[left].reshape(n_features, -1), order[~left].reshape(n_features, -1)


def best_split(
    X: np.ndarray,
    stats: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    sizes: np.ndarray,
    params: np.ndarray,
    gain: GainFunction,
) -> list[tuple[int, float, float]]:
    """Search a batch of nodes, each for its split with the largest gain.

    Node ``j`` has ``sizes[j]`` rows and ``C = features.size // sizes.size``
    candidate features, ``features[j * C:(j + 1) * C]`` in draw order.
    ``rows`` lists, node by node and within a node candidate by candidate,
    one segment per candidate: the node's rows of ``X`` and ``stats`` in
    stable ascending order of the candidate's column.  ``params[j]`` holds
    node ``j``'s gain parameters.  One ``gain`` call scores every
    candidate of every node: it receives the cumulative sums at each
    position after which a segment's value changes, and the parameters of
    the node each position splits, and returns each position's gain,
    ``-inf`` where a child would be too small.  Each node then takes its
    candidates in order, each at its first maximum, and keeps one when it
    beats the best so far by more than ``1e-12``.  Returns one ``(feature,
    threshold, gain)`` per node, with the threshold at the midpoint;
    ``feature == -1`` means no split gains more than zero.

    Cumulative sums restart at each segment.  A batch of one node sums
    each segment on its own.  A wider batch sums all of ``rows`` at once
    and subtracts the sum before each segment, which is exact only for
    integer statistics such as class counts.
    """
    n_nodes, n_features = sizes.size, X.shape[1]
    per_node = features.size // n_nodes
    lengths = sizes.repeat(per_node)
    last = lengths.cumsum() - 1  # each segment's last element
    # Methods and ``take`` rather than numpy functions and fancy indexing:
    # most nodes are small, so call overhead dominates.
    values = X.take(rows * n_features + features.repeat(lengths))
    change = values[1:] != values[:-1]
    change[last[:-1]] = False  # no split after a segment's last row
    position = change.nonzero()[0]  # the last row left of each split
    results = [(-1, 0.0, 0.0)] * n_nodes
    if position.size == 0:
        return results
    segment = last.searchsorted(position)
    if n_nodes == 1:
        cumulative = stats.take(rows.reshape(per_node, -1), axis=0).cumsum(axis=1)
        left = cumulative.reshape(rows.size, -1).take(position, axis=0)
        parent = params
    else:
        cumulative = stats.take(rows, axis=0).cumsum(axis=0)
        before = cumulative.take(last - lengths, axis=0)  # sums before each segment
        before[0] = 0.0
        left = cumulative.take(position, axis=0) - before.take(segment, axis=0)
        parent = params.take(segment // per_node, axis=0)
    gains = gain(left, parent)
    # Positions come segment by segment, so each segment's gains are one run.
    edges = [0, *((segment[1:] != segment[:-1]).nonzero()[0] + 1).tolist()]
    run_segment = segment.take(edges).tolist()
    best_gain, best_run = [0.0] * n_nodes, [-1] * n_nodes
    for run, run_gain in enumerate(np.maximum.reduceat(gains, edges).tolist()):
        node = run_segment[run] // per_node
        if run_gain > best_gain[node] + 1e-12:
            best_gain[node], best_run[node] = run_gain, run
    edges.append(gains.size)
    for node, run in enumerate(best_run):
        if run >= 0:
            start, stop = edges[run], edges[run + 1]
            i = position[start + int(gains[start:stop].argmax())]
            threshold = float((values[i] + values[i + 1]) / 2.0)
            results[node] = (int(features[run_segment[run]]), threshold, best_gain[node])
    return results


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column."""
    order = X.argsort(axis=0)
    ordered = np.take_along_axis(X, order, axis=0)
    ranks = np.zeros(X.shape, dtype=np.intp)
    np.put_along_axis(ranks, order[1:], (ordered[1:] != ordered[:-1]).cumsum(axis=0), axis=0)
    return ranks


def _sort_segments(
    ranks: np.ndarray, n_ranks: int, node_rows: np.ndarray, sizes: np.ndarray, features: np.ndarray
) -> np.ndarray:
    """:func:`best_split`'s ``rows`` for a batch of nodes, from one sort.

    ``node_rows`` holds the nodes' rows one node after another, and
    ``ranks`` each value's dense rank in its column of ``X``.  One int64
    key per (candidate, row) element orders it by segment, then by the
    rank of its value, then by its place among the batch's rows, so ties
    keep each node's row order, as a stable sort of each column would.
    Sorting the keys is many times faster than a ``lexsort`` of values
    within segments.  A key is below segments x distinct values x the
    batch's rows, which int64 holds far beyond the datasets here.
    """
    per_node = features.size // sizes.size
    lengths = sizes.repeat(per_node)
    segment = np.arange(features.size).repeat(lengths)
    # Element ``e`` of segment ``s`` is ``node_rows[e + shift[s]]``.
    shift = (sizes.cumsum() - sizes).repeat(per_node) - (lengths.cumsum() - lengths)
    index = np.arange(segment.size) + shift.take(segment)
    rank = ranks.take(node_rows.take(index) * ranks.shape[1] + features.take(segment))
    key = (segment * n_ranks + rank) * node_rows.size + index
    key.sort()
    return node_rows.take(key % node_rows.size)


def _chunks(step: list[tuple], per_node: int) -> Iterator[list[tuple]]:
    """Consecutive runs of a step's nodes of at most :data:`CHUNK_ELEMENTS`
    elements each, or of one node that alone has more."""
    chunk: list[tuple] = []
    elements = 0
    for item in step:
        size = item[1].size * per_node
        if chunk and elements + size > CHUNK_ELEMENTS:
            yield chunk
            chunk, elements = [], 0
        chunk.append(item)
        elements += size
    yield chunk


def grow(
    X: np.ndarray,
    stats: np.ndarray,
    samples: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    node: NodeFunction,
    gain: GainFunction,
    max_depth: int | None,
    n_candidates: int,
    orders: Sequence[np.ndarray] | None = None,
) -> list[tuple[Tree, list[tuple[int, float]]]]:
    """Grow one tree per sample in lockstep, each depth-first in pre-order.

    Tree ``t`` grows on the rows ``samples[t]`` of ``X`` and ``stats``, in
    that order and with any repeats, and draws from ``rngs[t]``.
    ``node(stats)`` returns a node's value and its gain parameters, or
    ``None`` for a node that must stay a leaf.  At each step every
    unfinished tree takes its next node in pre-order that may split,
    drawing ``n_candidates`` features from its generator, and
    :func:`best_split` searches these nodes together, at most
    :data:`CHUNK_ELEMENTS` elements per call: so searching more than one
    tree needs integer ``stats``.  When that is every feature, nothing is
    drawn and nothing below a root is sorted: tree ``t``'s root column
    orders, as row numbers, are ``orders[t]`` (:func:`presort` of its rows
    when not given), and every split hands its children theirs through
    :func:`partition`.  Returns,
    per tree, the tree and its splits' ``(feature, gain)`` pairs in
    pre-order, the order importances accumulate in.
    """
    X = np.ascontiguousarray(X)
    n_features = X.shape[1]
    every_feature = n_candidates >= n_features
    if every_feature:
        all_features = np.arange(n_features)
        if orders is None:
            orders = [rows.take(presort(X.take(rows, axis=0))) for rows in samples]
    else:
        ranks = _dense_ranks(X)
        n_ranks = int(ranks.max()) + 1
        orders = [None] * len(samples)
    per_node = min(n_candidates, n_features)
    # A node is a ``[value, split]`` slot, the pair ``Tree.build`` expands.
    roots = [[None, None] for _ in samples]
    pending = [[(rows, order, 0, root)] for rows, order, root in zip(samples, orders, roots)]
    splits: list[list[tuple[int, float]]] = [[] for _ in samples]
    while True:
        step = []
        for t, stack in enumerate(pending):
            while stack:
                rows, order, depth, slot = stack.pop()
                slot[0], params = node(stats.take(rows, axis=0))
                if params is None or (max_depth is not None and depth >= max_depth):
                    continue
                if every_feature:
                    candidates = all_features
                else:
                    candidates = rngs[t].choice(n_features, size=n_candidates, replace=False)
                # (tree, rows, column orders, depth, slot, gain parameters, candidates)
                step.append((t, rows, order, depth, slot, params, candidates))
                break
        if not step:
            break
        for chunk in _chunks(step, per_node):
            sizes = np.array([item[1].size for item in chunk])
            features = np.concatenate([item[6] for item in chunk])
            if every_feature:
                ordered = np.concatenate([item[2].ravel() for item in chunk])
            else:
                node_rows = np.concatenate([item[1] for item in chunk])
                ordered = _sort_segments(ranks, n_ranks, node_rows, sizes, features)
            params = np.array([item[5] for item in chunk], dtype=np.float64)
            found = best_split(X, stats, ordered, features, sizes, params, gain)
            for (t, rows, order, depth, slot, _, _), (feature, threshold, split_gain) in zip(
                chunk, found
            ):
                if feature < 0:
                    continue
                splits[t].append((feature, split_gain))
                goes_left = X[:, feature] <= threshold
                side = goes_left.take(rows)
                left_order, right_order = (
                    partition(order, goes_left) if every_feature else (None, None)
                )
                left, right = [None, None], [None, None]
                slot[1] = (feature, threshold, left, right)
                pending[t] += [
                    (rows.compress(~side), right_order, depth + 1, right),
                    (rows.compress(side), left_order, depth + 1, left),
                ]
    return [(Tree.build(root, tuple), tree_splits) for root, tree_splits in zip(roots, splits)]


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
    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.n_classes_ = len(self.classes_)
        self.n_features_ = X.shape[1]
        ((self.tree_, self._importances),) = self._grow(
            X, encoded, self.n_classes_, [np.arange(X.shape[0])],
            [check_random_state(self.random_state)],
        )
        return self

    def _grow(
        self,
        X: np.ndarray,
        codes: np.ndarray,
        n_classes: int,
        samples: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> list[tuple[Tree, np.ndarray]]:
        """Grow one tree per sample of rows, in lockstep; a forest grows
        its trees here too.

        ``codes`` are class indices ``0..n_classes-1`` and index the
        one-hot columns as they are, so a sample that misses a class keeps
        every class in its own column.  Returns each tree with its
        unnormalised mean-decrease-in-Gini importances.
        """
        # One-hot encode labels once; every node gathers its rows from it.
        onehot = np.zeros((X.shape[0], n_classes), dtype=np.float64)
        onehot[np.arange(X.shape[0]), codes] = 1.0
        grown = grow(
            X, onehot, samples, rngs, self._node, self._gain, self.max_depth,
            self._resolve_max_features(X.shape[1]),
        )
        trees = []
        for (tree, splits), rows in zip(grown, samples):
            importances = np.zeros(X.shape[1], dtype=np.float64)
            for feature, gain in splits:
                # Mean decrease in Gini: impurity decrease weighted by the
                # fraction of training samples that reach the node.
                importances[feature] += gain / rows.size
            trees.append((tree, importances))
        return trees

    def _resolve_max_features(self, n_features: int) -> int:
        m = self.max_features
        if m is None:
            return n_features
        if m == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if m == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(m, float):
            return max(1, int(m * n_features))
        return max(1, min(int(m), n_features))

    def _node(self, onehot: np.ndarray) -> tuple[np.ndarray, tuple[float, ...] | None]:
        """Class proportions of a node, and unless it stays a leaf its
        gain parameters: class counts, row count and Gini impurity."""
        n = onehot.shape[0]
        counts = onehot.sum(axis=0)
        proportions = counts / counts.sum()
        if n < self.min_samples_split or np.count_nonzero(counts) < 2:  # pure
            return proportions, None
        gini = float(1.0 - np.dot(proportions, proportions))
        return proportions, (*counts.tolist(), n, gini)

    def _gain(self, left: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Gini gain of each candidate split.

        The gain is the *unnormalised* impurity decrease ``N *
        (impurity_parent - weighted child impurity)``, so that summing
        gains over a tree matches the classic mean-decrease-in-Gini
        totals.
        """
        counts, n, impurity = parent[:, :-2], parent[:, -2], parent[:, -1]
        right = counts - left
        n_left = left.sum(axis=1)
        n_right = right.sum(axis=1)
        gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = n * (impurity - weighted)
        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        gains[~valid] = -np.inf
        return gains

    # -- prediction --------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        return next(descend([self.tree_], check_array(X), self.n_features_))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean decrease in Gini, normalised to sum to 1 (when nonzero)."""
        return _normalised(self._importances)


def _normalised(importances: np.ndarray) -> np.ndarray:
    """``importances`` scaled to sum to 1, or a copy when they sum to 0."""
    total = importances.sum()
    if total == 0.0:
        return importances.copy()
    return importances / total
