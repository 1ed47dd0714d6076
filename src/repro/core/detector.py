"""The deployable detector and the suite evaluation, for apps and devices.

The paper deploys one kind of model twice: the Table 1 winner scores
apps (§7.2) and the Table 2 winner scores devices (§8.2), and §9 ships
both pre-trained inside a store client.  :class:`Detector` is that model
(median imputation, then the suite's booster); :class:`SuiteEvaluation`
holds one suite's cross-validation results and its forest's Gini
importances (Table 1 with Figure 13, Table 2 with Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.gradient_boosting import GradientBoostingClassifier
from ..ml.model_selection import CrossValidationResult
from ..ml.preprocessing import SimpleImputer
from .datasets import AppDataset, DeviceDataset

__all__ = ["SuiteEvaluation", "Detector"]


@dataclass
class SuiteEvaluation:
    """One algorithm suite's table and its figure of Gini importances."""

    results: dict[str, CrossValidationResult]
    feature_importances: dict[str, float]

    def table_rows(self) -> list[tuple[str, float, float, float]]:
        """(algorithm, precision, recall, f1) sorted best-F1-first."""
        rows = [
            (name, r.precision, r.recall, r.f1) for name, r in self.results.items()
        ]
        return sorted(rows, key=lambda row: -row[3])

    def best_algorithm(self) -> str:
        return self.table_rows()[0][0]

    def top_features(self) -> list[tuple[str, float]]:
        """The ten most important features, as Figures 13 and 14 plot them."""
        ranked = sorted(self.feature_importances.items(), key=lambda kv: -kv[1])
        return ranked[:10]


class Detector:
    """Median imputation, then a fitted booster.

    ``predict`` and ``positive_probability`` accept raw (possibly NaN)
    feature vectors in the order of the dataset it was fitted on.
    """

    def __init__(self, model: GradientBoostingClassifier) -> None:
        self.imputer = SimpleImputer()
        self.model = model
        self.feature_names: tuple[str, ...] = ()

    def fit(self, dataset: AppDataset | DeviceDataset) -> "Detector":
        X = self.imputer.fit_transform(dataset.X)
        self.model.fit(X, dataset.y)
        self.feature_names = dataset.feature_names
        return self

    def predict(self, X) -> np.ndarray:
        return self.model.predict(self.imputer.transform(np.atleast_2d(X)))

    def positive_probability(self, X) -> np.ndarray:
        """P(label 1) per row: a promotion install for the app detector, a
        worker device for the device detector.

        A booster fitted on one class keeps only that class and predicts
        it with probability 1, so a model that never saw label 1 gives
        0.0 for every row.
        """
        proba = self.model.predict_proba(self.imputer.transform(np.atleast_2d(X)))
        positive = np.nonzero(self.model.classes_ == 1)[0]
        if positive.size == 0:
            return np.zeros(proba.shape[0])
        return proba[:, positive[0]]
