"""App classifier (§7.2): detecting promotion-installed apps.

Evaluates the paper's five algorithms with one run of 10-fold CV (the
paper repeats it five times; DESIGN §2 records the deviation), reports
Table 1, computes the Figure 13 Gini importances from a random forest,
and produces a deployable model for the detection pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..ml import (
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    LVQClassifier,
    RandomForestClassifier,
    cross_validate,
)
from ..ml.model_selection import CrossValidationResult
from ..ml.preprocessing import SimpleImputer
from .datasets import AppDataset

__all__ = ["APP_ALGORITHMS", "AppClassifierEvaluation", "AppClassifier", "evaluate_app_algorithms"]


def APP_ALGORITHMS() -> dict[str, object]:
    """The Table 1 algorithm suite (KNN uses K=5 per the paper)."""
    return {
        "XGB": GradientBoostingClassifier(
            n_estimators=150, max_depth=4, learning_rate=0.15, random_state=0
        ),
        "RF": RandomForestClassifier(n_estimators=120, random_state=0),
        "LR": LogisticRegression(C=1.0),
        "KNN": KNeighborsClassifier(n_neighbors=5),
        "LVQ": LVQClassifier(prototypes_per_class=6, epochs=25, random_state=0),
    }


@dataclass
class AppClassifierEvaluation:
    """Table 1 + Figure 13 in object form."""

    results: dict[str, CrossValidationResult]
    feature_importances: dict[str, float]
    n_suspicious: int
    n_regular: int

    def table_rows(self) -> list[tuple[str, float, float, float]]:
        """(algorithm, precision, recall, f1) sorted best-F1-first."""
        rows = [
            (name, r.precision, r.recall, r.f1) for name, r in self.results.items()
        ]
        return sorted(rows, key=lambda row: -row[3])

    def best_algorithm(self) -> str:
        return self.table_rows()[0][0]

    def top_features(self, k: int = 10) -> list[tuple[str, float]]:
        ranked = sorted(self.feature_importances.items(), key=lambda kv: -kv[1])
        return ranked[:k]


def evaluate_app_algorithms(
    dataset: AppDataset, n_splits: int = 10, n_jobs: int | None = None
) -> AppClassifierEvaluation:
    """Run the §7.2 protocol over the Table 1 suite: one stratified
    ``n_splits``-fold CV on the data as labeled (no resampling), seed 0.

    ``n_jobs`` fans the CV folds (and the importance forest's trees) out
    across worker processes without changing any reported number.
    """
    results: dict[str, CrossValidationResult] = {}
    for name, estimator in APP_ALGORITHMS().items():
        with obs.trace(f"ml.cv.app.{name}"):
            results[name] = cross_validate(
                estimator,
                dataset.X,
                dataset.y,
                n_splits=n_splits,
                random_state=0,
                name=name,
                n_jobs=n_jobs,
            )

    # Figure 13: mean decrease in Gini from a forest over the full data.
    with obs.trace("ml.importances.app"):
        forest = RandomForestClassifier(n_estimators=150, random_state=0, n_jobs=n_jobs)
        forest.fit(dataset.X, dataset.y)
    importances = dict(zip(dataset.feature_names, forest.feature_importances_))

    return AppClassifierEvaluation(
        results=results,
        feature_importances=importances,
        n_suspicious=dataset.n_suspicious,
        n_regular=dataset.n_regular,
    )


class AppClassifier:
    """Deployable promotion-usage detector (XGB, the Table 1 winner).

    Wraps imputation + the boosted model; ``predict``/``predict_proba``
    accept raw (possibly NaN) feature vectors in APP_FEATURE_NAMES order.
    """

    def __init__(self) -> None:
        self._imputer = SimpleImputer(strategy="median")
        self._model = GradientBoostingClassifier(
            n_estimators=150, max_depth=4, learning_rate=0.15, random_state=0
        )
        self.feature_names: tuple[str, ...] = ()

    def fit(self, dataset: AppDataset) -> "AppClassifier":
        X = self._imputer.fit_transform(dataset.X)
        self._model.fit(X, dataset.y)
        self.feature_names = dataset.feature_names
        return self

    def predict(self, X) -> np.ndarray:
        return self._model.predict(self._imputer.transform(np.atleast_2d(X)))

    def predict_proba(self, X) -> np.ndarray:
        return self._model.predict_proba(self._imputer.transform(np.atleast_2d(X)))
