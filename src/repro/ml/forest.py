"""Random Forest classifier (bagged CART trees with feature subsampling).

Used for the "RF" rows of Tables 1 and 2, and — because the paper measures
variable importance by *mean decrease in Gini* [Breiman 2001] — as the
importance estimator behind Figures 13 and 14.

Trees are independent once their bootstrap sample and seed are fixed, so
``fit`` fans tree growth out across worker processes when ``n_jobs > 1``.
Determinism contract (DESIGN.md §8): every bootstrap sample and per-tree
seed is drawn from ``random_state`` *before* any fan-out, in the exact
order the serial loop has always drawn them, and trees (with their
Gini importances) are merged back in tree order — the same seed yields
byte-identical forests at any worker count.
"""

from __future__ import annotations

import numpy as np

from ..parallel import draw_seeds, parallel_map
from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y
from .tree import DecisionTreeClassifier, descend

__all__ = ["RandomForestClassifier"]


def _fit_tree(
    X: np.ndarray,
    encoded: np.ndarray,
    sample: np.ndarray,
    seed: int,
    params: dict,
    n_classes: int,
) -> DecisionTreeClassifier:
    """Grow one pre-seeded tree on its sample."""
    tree = DecisionTreeClassifier(random_state=seed, **params)
    # Fit on encoded labels so every tree shares the class space even if
    # a bootstrap sample misses a class.
    return tree.fit(X[sample], encoded[sample], sample_classes=n_classes)


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bootstrap-aggregated CART trees.

    Parameters mirror the usual conventions: ``n_estimators`` trees, each
    fit on a bootstrap sample with ``max_features`` features considered
    per split (default ``"sqrt"``).  ``feature_importances_`` averages the
    per-tree mean decrease in Gini, matching the measure in Figs. 13/14.
    ``n_jobs`` controls per-tree fit parallelism (``None`` →
    ``REPRO_N_JOBS`` → serial; ``<= 0`` → all cores) without changing a
    single output bit.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
        n_jobs: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.n_jobs = n_jobs

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        rng = check_random_state(self.random_state)
        n = X.shape[0]

        # Pre-draw every tree's bootstrap sample and seed before any
        # fan-out, preserving the serial draw order (sample then seed,
        # per tree) so results never depend on the worker count.
        samples: list[np.ndarray] = []
        seeds: list[int] = []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                samples.append(rng.integers(0, n, size=n))
            else:
                samples.append(np.arange(n))
            seeds.extend(draw_seeds(rng, 1))

        params = {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }
        n_classes = len(self.classes_)
        # Collection is in submission (= tree) order, so importance
        # accumulation reproduces the serial float-summation order.
        self.estimators_ = parallel_map(
            _fit_tree,
            [
                (X, encoded, samples[i], seeds[i], params, n_classes)
                for i in range(self.n_estimators)
            ],
            n_jobs=self.n_jobs,
        )
        return self

    def predict_proba(self, X) -> np.ndarray:
        trees = [tree.tree_ for tree in self.estimators_]
        votes = descend(trees, check_array(X), self.n_features_)
        proba = next(votes)  # a fresh array: descend copies leaf values out
        for tree_proba in votes:
            proba += tree_proba
        return proba / len(self.estimators_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Forest-averaged mean decrease in Gini, normalised to sum to 1."""
        total = np.zeros(self.n_features_, dtype=np.float64)
        for tree in self.estimators_:
            total += tree.feature_importances_
        total /= len(self.estimators_)
        s = total.sum()
        return total / s if s else total
