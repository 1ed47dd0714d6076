"""Hyper-parameter search over cross-validated F1.

The paper reports "KNN achieved best performance for K = 5" in both
tables, implying a K sweep; :func:`grid_search` generalises that to any
estimator and parameter grid, using the same repeated-stratified-CV
machinery as the main evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .base import clone
from .model_selection import CrossValidationResult, cross_validate

__all__ = ["GridSearchResult", "grid_search"]


@dataclass
class GridSearchResult:
    """All evaluated parameter combinations, best-first by F1."""

    entries: list[tuple[dict, CrossValidationResult]] = field(default_factory=list)

    @property
    def best_params(self) -> dict:
        return self.entries[0][0]


def grid_search(
    estimator,
    param_grid: dict[str, list],
    X,
    y,
    n_splits: int = 10,
    n_repeats: int = 1,
    resample: str | None = None,
    random_state: int | None = 0,
) -> GridSearchResult:
    """Exhaustive grid search; returns combinations sorted by CV F1.

    ``param_grid`` maps parameter names to candidate values; every
    combination is evaluated with the same CV folds (same seed).
    """
    names = sorted(param_grid)
    result = GridSearchResult()
    for values in itertools.product(*(param_grid[name] for name in names)):
        params = dict(zip(names, values))
        candidate = clone(estimator).set_params(**params)
        cv = cross_validate(
            candidate,
            X,
            y,
            n_splits=n_splits,
            n_repeats=n_repeats,
            resample=resample,
            random_state=random_state,
        )
        result.entries.append((params, cv))
    result.entries.sort(key=lambda entry: -entry[1].f1)
    return result
