"""Random Forest classifier (bagged CART trees with feature subsampling).

Used for the "RF" rows of Tables 1 and 2, and — because the paper measures
variable importance by *mean decrease in Gini* [Breiman 2001] — as the
importance estimator behind Figures 13 and 14.

The forest grows its trees in lockstep (:func:`repro.ml.tree.grow`):
each step searches the next node of every unfinished tree in one batch
and values every node its splits make in one more call, which pays
numpy's per-call overhead once per step instead of once per node.  It
predicts the same way (:func:`repro.ml.tree.descend`): blocks of trees
stacked into one set of arrays move every (tree, row) pair down a level
with one set of numpy calls, and the votes still add in tree order.
Trees are independent once their bootstrap sample and seed are fixed,
so ``fit`` fans contiguous blocks of trees out across worker processes
when ``n_jobs > 1``, one block per worker, and each worker grows its
block in lockstep.  Determinism contract (DESIGN.md §8): every bootstrap
sample and per-tree seed is drawn from ``random_state`` *before* any
fan-out, in the exact order the serial loop has always drawn them, and
trees (with their Gini importances) are merged back in tree order — the
same seed yields byte-identical forests at any worker count.
"""

from __future__ import annotations

import numpy as np

from ..parallel import draw_seeds, parallel_map, resolve_n_jobs
from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y
from .tree import DecisionTreeClassifier, Tree, _normalised, descend

__all__ = ["RandomForestClassifier"]


def _grow_trees(
    X: np.ndarray,
    encoded: np.ndarray,
    samples: list[np.ndarray],
    seeds: list[int],
    n_classes: int,
) -> list[tuple[Tree, np.ndarray]]:
    """Grow a block of pre-seeded trees in lockstep, one per sample, each
    node searching ``sqrt(d)`` sampled features."""
    rngs = [check_random_state(seed) for seed in seeds]
    n_candidates = max(1, int(np.sqrt(X.shape[1])))
    return DecisionTreeClassifier()._grow(X, encoded, n_classes, samples, rngs, n_candidates)


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bootstrap-aggregated CART trees.

    Each of the ``n_estimators`` trees grows in full on a bootstrap
    sample, with ``sqrt(d)`` of the ``d`` features sampled as candidates
    at every node.  ``feature_importances_`` averages the per-tree mean
    decrease in Gini, matching the measure in Figs. 13/14.  ``n_jobs``
    controls how many blocks of trees grow in parallel (``None`` →
    ``REPRO_N_JOBS`` → serial; ``<= 0`` → all cores) without changing a
    single output bit.  A fitted forest keeps each tree in ``trees_`` and
    its normalised importances in ``tree_importances_``.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        random_state: int | None = None,
        n_jobs: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
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
            samples.append(rng.integers(0, n, size=n))
            seeds.extend(draw_seeds(rng, 1))

        n_classes = len(self.classes_)
        blocks = np.array_split(np.arange(self.n_estimators), resolve_n_jobs(self.n_jobs))
        # Collection is in submission (= tree) order, so importance
        # accumulation reproduces the serial float-summation order.
        grown = parallel_map(
            _grow_trees,
            [
                (X, encoded, [samples[i] for i in block], [seeds[i] for i in block], n_classes)
                for block in blocks
                if block.size
            ],
            n_jobs=self.n_jobs,
        )
        self.trees_ = [tree for block in grown for tree, _ in block]
        self.tree_importances_ = [_normalised(imp) for block in grown for _, imp in block]
        return self

    def predict_proba(self, X) -> np.ndarray:
        votes = descend(self.trees_, check_array(X), self.n_features_)
        proba = next(votes)  # a fresh array: descend copies leaf values out
        for tree_proba in votes:
            proba += tree_proba
        return proba / len(self.trees_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Forest-averaged mean decrease in Gini, normalised to sum to 1."""
        total = np.zeros(self.n_features_, dtype=np.float64)
        for importances in self.tree_importances_:
            total += importances
        total /= len(self.trees_)
        s = total.sum()
        return total / s if s else total
