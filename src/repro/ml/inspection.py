"""Model inspection: permutation importance.

Mean-decrease-in-Gini (Figs 13-14) is computed on training data and is
known to inflate high-cardinality features; permutation importance on
held-out folds is the standard cross-check [Breiman 2001].  The Fig 13/14
benches report both so the feature rankings can be compared.  Each
feature costs one ``predict`` call over all its shuffled copies, so a
forest pays its per-call overhead once per feature, not once per copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import check_random_state, check_X_y
from .metrics import f1_score

__all__ = ["PermutationImportance", "permutation_importance"]


@dataclass(frozen=True)
class PermutationImportance:
    """Per-feature importances: drop in score when the feature is shuffled."""

    importances_mean: np.ndarray
    importances_std: np.ndarray
    baseline_score: float

    def ranking(self, feature_names) -> list[tuple[str, float]]:
        order = np.argsort(-self.importances_mean)
        return [(feature_names[i], float(self.importances_mean[i])) for i in order]


def permutation_importance(
    model,
    X,
    y,
    n_repeats: int = 5,
    random_state: int | None = None,
) -> PermutationImportance:
    """Permutation importance of a *fitted* model on (X, y).

    The score is F1 on label 1.  Each feature column is shuffled
    ``n_repeats`` times; the importance is the mean drop from the
    baseline score.  A feature's shuffled copies are stacked and
    predicted in one ``predict`` call, so the model must predict each
    row on its own, as every classifier in :mod:`repro.ml` does.
    """
    X, y = check_X_y(X, y)
    rng = check_random_state(random_state)
    baseline = float(f1_score(y, model.predict(X)))
    n, n_features = X.shape
    drops = np.zeros((n_features, n_repeats))
    copies = np.repeat(X[None], n_repeats, axis=0)  # (n_repeats, n, F)
    for feature in range(n_features):
        for repeat in range(n_repeats):
            copies[repeat, :, feature] = rng.permutation(X[:, feature])
        predicted = model.predict(copies.reshape(-1, n_features)).reshape(n_repeats, n)
        for repeat in range(n_repeats):
            drops[feature, repeat] = baseline - float(f1_score(y, predicted[repeat]))
        copies[:, :, feature] = X[:, feature]
    return PermutationImportance(
        importances_mean=drops.mean(axis=1),
        importances_std=drops.std(axis=1),
        baseline_score=baseline,
    )
