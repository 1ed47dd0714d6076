"""Extreme-gradient-boosting classifier ("XGB" in Tables 1 and 2).

This is a from-scratch implementation of the XGBoost *algorithm* for
binary classification: additive regression trees fit to the first- and
second-order gradients of the logistic loss, with the regularised
second-order split gain

    gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ]

and leaf weights ``w = -G / (H + lambda)`` (Chen & Guestrin, KDD 2016),
at XGBoost's defaults: ``lambda = 1``, ``gamma = 0``, a minimum child
hessian mass of 1, a base score of 0.5 (a starting margin of exactly 0)
and every row and every feature in every round.  XGB is the
best-performing algorithm in both of the paper's tables, so this module
is the one that must reproduce the headline F1 numbers.

Each boosting round grows one tree -- a list of one for the shared
grower and split search in :mod:`repro.ml.tree`, so every search is a
batch of one node -- and this module contributes only the gain above,
over ``[grad, hess]`` statistics.  It keeps each round as a flat-array
:class:`~repro.ml.tree.Tree`; the margin sums the rounds' leaf weights
through the same descent that predicts every other tree.  Every round
sees the same matrix and every node searches every feature, so ``fit``
sorts its columns once and every round starts from that order, as
XGBoost's exact greedy algorithm keeps its sorted column blocks (KDD
2016, §4.1).  Nothing is drawn at random.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_X_y
from .tree import Tree, descend, grow, presort

__all__ = ["GradientBoostingClassifier"]

#: L2 penalty on leaf weights (XGBoost's ``lambda``).
REG_LAMBDA = 1.0
#: Least hessian mass either child of a split must hold.
MIN_CHILD_WEIGHT = 1.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Binary XGBoost-style classifier on the logistic loss.

    ``n_estimators`` rounds of trees at most ``max_depth`` deep, each
    round's leaf weights shrunk by ``learning_rate``.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 4,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        self.trees_: list[Tree] = []
        if len(self.classes_) == 1:
            # Degenerate training set: constant prediction.
            self._constant_class = True
            self.base_margin_ = 50.0  # sigmoid ~ 1 for the single class
            return self
        if len(self.classes_) != 2:
            raise ValueError("GradientBoostingClassifier is binary-only")
        self._constant_class = False
        n = X.shape[0]
        target = encoded.astype(np.float64)

        self.base_margin_ = 0.0  # log-odds of the 0.5 base score
        margin = np.full(n, self.base_margin_, dtype=np.float64)
        # Every round sees the same X and searches every feature at every
        # node: sort its columns once here instead of in every round.
        order = presort(X)

        self._tree_gains: list[np.ndarray] = []
        every_row = np.arange(n)
        for _ in range(self.n_estimators):
            p = _sigmoid(margin)
            grad = p - target
            hess = p * (1.0 - p)

            ((tree, splits),) = grow(
                X, np.column_stack([grad, hess]), [every_row], None, self._node, self._gain,
                self.max_depth, self.n_features_, [order],
            )
            gains = np.zeros(self.n_features_, dtype=np.float64)
            for feature, gain in splits:
                gains[feature] += gain
            self.trees_.append(tree)
            self._tree_gains.append(gains)
            (weights,) = descend([tree], X, self.n_features_)
            margin += self.learning_rate * weights
        return self

    def _node(self, stats: np.ndarray) -> tuple[float, tuple[float, float, float] | None]:
        """Leaf weight of a node over its ``[grad, hess]`` rows, and unless
        it stays a leaf its gain parameters: ``G``, ``H`` and ``G^2 /
        (H + lambda)``.

        A node with one row, or with less hessian mass than two children
        need, stays a leaf: no split of it can leave both children
        :data:`MIN_CHILD_WEIGHT` (DESIGN.md §14 gives the rounding
        argument), so searching it would find none.
        """
        # Each column summed on its own, as a 1-D array sums: a column sum
        # of the whole matrix adds in another order and moves the bytes.
        g_sum = float(stats[:, 0].sum())
        h_sum = float(stats[:, 1].sum())
        weight = -g_sum / (h_sum + REG_LAMBDA)
        if stats.shape[0] < 2 or h_sum < 2 * MIN_CHILD_WEIGHT:
            return weight, None
        return weight, (g_sum, h_sum, g_sum**2 / (h_sum + REG_LAMBDA))

    def _gain(self, left: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Second-order gain of each candidate split over its left
        ``[grad, hess]`` sums."""
        g_sum, h_sum, parent_score = parent[:, 0], parent[:, 1], parent[:, 2]
        g_left, h_left = left[:, 0], left[:, 1]
        h_right = h_sum - h_left
        valid = (h_left >= MIN_CHILD_WEIGHT) & (h_right >= MIN_CHILD_WEIGHT)
        if not valid.any():  # most small nodes: skip the arithmetic
            return np.full(valid.shape, -np.inf)
        g_right = g_sum - g_left
        gains = 0.5 * (
            g_left**2 / (h_left + REG_LAMBDA)
            + g_right**2 / (h_right + REG_LAMBDA)
            - parent_score
        )
        gains[~valid] = -np.inf
        return gains

    def decision_function(self, X) -> np.ndarray:
        X = check_array(X)
        margin = np.full(X.shape[0], self.base_margin_, dtype=np.float64)
        for weights in descend(self.trees_, X, self.n_features_):
            margin += self.learning_rate * weights
        return margin

    def predict_proba(self, X) -> np.ndarray:
        if self._constant_class:
            X = check_array(X)
            return np.ones((X.shape[0], 1), dtype=np.float64)
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Total split gain per feature, normalised (XGBoost 'gain')."""
        if not self.trees_:
            raise RuntimeError("model has no trees (constant class?)")
        total = np.zeros(self.n_features_, dtype=np.float64)
        for gains in self._tree_gains:
            total += gains
        s = total.sum()
        return total / s if s else total
