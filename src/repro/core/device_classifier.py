"""Device classifier (§8.2): detecting worker-controlled devices.

Table 2's algorithm suite (XGB, RF, SVM, KNN, LVQ), 10-fold CV with
SMOTE oversampling of the minority class, plus the Figure 14 Gini
importances.  Precision is the prioritised metric ("a low precision
would lead the app market to take wrong actions against many regular
devices").  The pipeline deploys the suite's XGB as the device
:class:`~repro.core.detector.Detector`.
"""

from __future__ import annotations

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
from .datasets import DeviceDataset
from .detector import SuiteEvaluation

__all__ = ["DEVICE_ALGORITHMS", "evaluate_device_algorithms"]


def DEVICE_ALGORITHMS() -> dict[str, object]:
    """The Table 2 algorithm suite (KNN uses K=5 per the paper)."""
    return {
        "XGB": GradientBoostingClassifier(
            n_estimators=120, max_depth=3, learning_rate=0.15
        ),
        "RF": RandomForestClassifier(n_estimators=120, random_state=0),
        "SVM": LinearSVC(epochs=40, random_state=0),
        "KNN": KNeighborsClassifier(n_neighbors=5),
        "LVQ": LVQClassifier(prototypes_per_class=5),
    }


def evaluate_device_algorithms(
    dataset: DeviceDataset, n_splits: int = 10, n_jobs: int | None = None
) -> SuiteEvaluation:
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

    return SuiteEvaluation(results=results, feature_importances=importances)

