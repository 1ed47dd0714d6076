"""Extreme-gradient-boosting classifier ("XGB" in Tables 1 and 2).

This is a from-scratch implementation of the XGBoost *algorithm* for
binary classification: additive regression trees fit to the first- and
second-order gradients of the logistic loss, with the regularised
second-order split gain

    gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma

and leaf weights ``w = -G / (H + lambda)`` (Chen & Guestrin, KDD 2016).
XGB is the best-performing algorithm in both of the paper's tables, so
this module is the one that must reproduce the headline F1 numbers.

Each boosting round grows one tree with the shared kernel in
:mod:`repro.ml.tree` -- this module contributes only the gain above,
over ``[grad, hess]`` statistics -- and keeps it as a flat-array
:class:`~repro.ml.tree.Tree`; the margin sums the rounds' leaf weights
through the same descent that predicts every other tree.  Every round
sees the same matrix, so when every node searches every feature
(``colsample_bytree=1``) ``fit`` sorts its columns once and every round
starts from that order, as XGBoost's exact greedy algorithm keeps its
sorted column blocks (KDD 2016, §4.1); a round with ``subsample < 1``
takes its rows' order with the kernel's stable partition.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y
from .tree import GainFunction, Tree, descend, grow, partition, presort

__all__ = ["GradientBoostingClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Binary XGBoost-style classifier on the logistic loss.

    Parameters
    ----------
    n_estimators, learning_rate, max_depth:
        The usual boosting controls.
    reg_lambda, gamma, min_child_weight:
        XGBoost regularisation: L2 on leaf weights, per-split penalty,
        and minimum hessian mass per child.
    subsample, colsample_bytree:
        Stochastic row/column sampling per boosting round.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        base_score: float = 0.5,
        random_state: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.base_score = base_score
        self.random_state = random_state

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
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        target = encoded.astype(np.float64)
        n_candidates = max(1, int(self.colsample_bytree * self.n_features_))

        p0 = np.clip(self.base_score, 1e-6, 1.0 - 1e-6)
        self.base_margin_ = float(np.log(p0 / (1.0 - p0)))
        margin = np.full(n, self.base_margin_, dtype=np.float64)
        # Every round sees the same X: with every feature searched at every
        # node, sort its columns once here instead of in every round.
        order = presort(X) if n_candidates == self.n_features_ else None

        self._tree_gains: list[np.ndarray] = []
        self.train_losses_: list[float] = []
        for _ in range(self.n_estimators):
            p = _sigmoid(margin)
            grad = p - target
            hess = p * (1.0 - p)

            if self.subsample < 1.0:
                rows = rng.random(n) < self.subsample
                if not rows.any():
                    rows[rng.integers(0, n)] = True
                round_order = None if order is None else partition(order, rows)[0]
            else:
                rows = np.ones(n, dtype=bool)
                round_order = order

            tree, splits = grow(
                X[rows], np.column_stack([grad, hess])[rows], self._node,
                self.max_depth, n_candidates, rng, round_order,
            )
            gains = np.zeros(self.n_features_, dtype=np.float64)
            for feature, gain in splits:
                gains[feature] += gain
            self.trees_.append(tree)
            self._tree_gains.append(gains)
            (weights,) = descend([tree], X, self.n_features_)
            margin += self.learning_rate * weights

            p = np.clip(_sigmoid(margin), 1e-12, 1 - 1e-12)
            loss = float(-np.mean(target * np.log(p) + (1 - target) * np.log(1 - p)))
            self.train_losses_.append(loss)
        return self

    def _node(self, stats: np.ndarray) -> tuple[float, GainFunction | None]:
        """Leaf weight of a node over its ``[grad, hess]`` rows, and its
        split gain unless it stays a leaf."""
        # Each column summed on its own, as a 1-D array sums: a column sum
        # of the whole matrix adds in another order and moves the bytes.
        g_sum = float(stats[:, 0].sum())
        h_sum = float(stats[:, 1].sum())
        weight = -g_sum / (h_sum + self.reg_lambda)
        if stats.shape[0] < 2:
            return weight, None
        parent_score = g_sum**2 / (h_sum + self.reg_lambda)

        def gain(left: np.ndarray) -> np.ndarray:
            g_left, h_left = left[:, 0], left[:, 1]
            h_right = h_sum - h_left
            valid = (h_left >= self.min_child_weight) & (h_right >= self.min_child_weight)
            if not valid.any():  # most small nodes: skip the arithmetic
                return np.full(valid.shape, -np.inf)
            g_right = g_sum - g_left
            gains = 0.5 * (
                g_left**2 / (h_left + self.reg_lambda)
                + g_right**2 / (h_right + self.reg_lambda)
                - parent_score
            ) - self.gamma
            gains[~valid] = -np.inf
            return gains

        return weight, gain

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
