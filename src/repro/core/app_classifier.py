"""App classifier (§7.2): detecting promotion-installed apps.

Evaluates the paper's five algorithms with one run of 10-fold CV (the
paper repeats it five times; DESIGN §2 records the deviation), reports
Table 1 and computes the Figure 13 Gini importances from a random
forest.  The pipeline deploys the suite's XGB as the app
:class:`~repro.core.detector.Detector`.
"""

from __future__ import annotations

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
from .datasets import AppDataset
from .detector import SuiteEvaluation

__all__ = ["APP_ALGORITHMS", "evaluate_app_algorithms"]


def APP_ALGORITHMS() -> dict[str, object]:
    """The Table 1 algorithm suite (KNN uses K=5 per the paper)."""
    return {
        "XGB": GradientBoostingClassifier(
            n_estimators=150, max_depth=4, learning_rate=0.15
        ),
        "RF": RandomForestClassifier(n_estimators=120, random_state=0),
        "LR": LogisticRegression(),
        "KNN": KNeighborsClassifier(n_neighbors=5),
        "LVQ": LVQClassifier(prototypes_per_class=6, epochs=25, random_state=0),
    }


def evaluate_app_algorithms(
    dataset: AppDataset, n_splits: int = 10, n_jobs: int | None = None
) -> SuiteEvaluation:
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

    return SuiteEvaluation(results=results, feature_importances=importances)

