"""Device classifier (§8.2): detecting worker-controlled devices.

Table 2's algorithm suite (XGB, RF, SVM, KNN, LVQ), 10-fold CV with
SMOTE oversampling of the minority class, plus the Figure 14 Gini
importances.  Precision is the prioritised metric ("a low precision
would lead the app market to take wrong actions against many regular
devices").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..ml import (
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LinearSVC,
    LVQClassifier,
    RandomForestClassifier,
    cross_validate,
)
from ..ml.model_selection import CrossValidationResult
from ..ml.preprocessing import SimpleImputer
from .datasets import DeviceDataset

__all__ = [
    "DEVICE_ALGORITHMS",
    "DeviceClassifierEvaluation",
    "DeviceClassifier",
    "evaluate_device_algorithms",
]


def DEVICE_ALGORITHMS() -> dict[str, object]:
    """The Table 2 algorithm suite (KNN uses K=5 per the paper)."""
    return {
        "XGB": GradientBoostingClassifier(
            n_estimators=120, max_depth=3, learning_rate=0.15
        ),
        "RF": RandomForestClassifier(n_estimators=120, random_state=0),
        "SVM": LinearSVC(C=1.0, epochs=40, random_state=0),
        "KNN": KNeighborsClassifier(n_neighbors=5),
        "LVQ": LVQClassifier(prototypes_per_class=5, epochs=25, random_state=0),
    }


@dataclass
class DeviceClassifierEvaluation:
    """Table 2 + Figure 14 in object form."""

    results: dict[str, CrossValidationResult]
    feature_importances: dict[str, float]
    n_worker: int
    n_regular: int
    #: The resampling inside every CV training fold, as Table 2 reports it.
    sampling: str = "smote"

    def table_rows(self) -> list[tuple[str, float, float, float]]:
        rows = [
            (name, r.precision, r.recall, r.f1) for name, r in self.results.items()
        ]
        return sorted(rows, key=lambda row: -row[3])

    def best_algorithm(self) -> str:
        return self.table_rows()[0][0]

    def top_features(self, k: int = 10) -> list[tuple[str, float]]:
        ranked = sorted(self.feature_importances.items(), key=lambda kv: -kv[1])
        return ranked[:k]


def evaluate_device_algorithms(
    dataset: DeviceDataset, n_splits: int = 10, n_jobs: int | None = None
) -> DeviceClassifierEvaluation:
    """Run the §8.2 protocol over the Table 2 suite: one stratified
    ``n_splits``-fold CV with SMOTE inside every training fold, seed 0.

    ``n_jobs`` fans the CV folds (and the importance forest's trees) out
    across worker processes without changing any reported number.
    """
    results: dict[str, CrossValidationResult] = {}
    for name, estimator in DEVICE_ALGORITHMS().items():
        with obs.trace(f"ml.cv.device.{name}"):
            results[name] = cross_validate(
                estimator,
                dataset.X,
                dataset.y,
                n_splits=n_splits,
                resample="smote",
                random_state=0,
                name=name,
                n_jobs=n_jobs,
            )

    with obs.trace("ml.importances.device"):
        forest = RandomForestClassifier(n_estimators=150, random_state=0, n_jobs=n_jobs)
        forest.fit(dataset.X, dataset.y)
    importances = dict(zip(dataset.feature_names, forest.feature_importances_))

    return DeviceClassifierEvaluation(
        results=results,
        feature_importances=importances,
        n_worker=dataset.n_worker,
        n_regular=dataset.n_regular,
    )


class DeviceClassifier:
    """Deployable worker-device detector (XGB, the Table 2 winner)."""

    def __init__(self) -> None:
        self._imputer = SimpleImputer(strategy="median")
        self._model = GradientBoostingClassifier(
            n_estimators=120, max_depth=3, learning_rate=0.15
        )
        self.feature_names: tuple[str, ...] = ()

    def fit(self, dataset: DeviceDataset) -> "DeviceClassifier":
        X = self._imputer.fit_transform(dataset.X)
        self._model.fit(X, dataset.y)
        self.feature_names = dataset.feature_names
        return self

    def predict(self, X) -> np.ndarray:
        return self._model.predict(self._imputer.transform(np.atleast_2d(X)))

    def predict_proba(self, X) -> np.ndarray:
        return self._model.predict_proba(self._imputer.transform(np.atleast_2d(X)))
