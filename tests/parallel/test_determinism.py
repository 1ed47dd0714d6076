"""The determinism-under-parallelism contract (DESIGN.md §8).

Every assertion here is exact (``==`` / ``array_equal``), never
approximate: the contract is *byte-identical* outputs at any worker
count, not statistically similar ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import DetectionPipeline
from repro.experiments import Workbench, run_many
from repro.ml import (
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LinearSVC,
    LogisticRegression,
    LVQClassifier,
    RandomForestClassifier,
    cross_validate,
)
from repro.ml.tree import DecisionTreeClassifier
from repro.simulation import SimulationConfig
from tests.helpers import spawn_seeds


@pytest.fixture(scope="module")
def dataset():
    data_seed, label_seed = spawn_seeds(2024, 2)
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(120, 6))
    y = np.random.default_rng(label_seed).permutation(
        (np.arange(120) % 3 == 0).astype(np.int64)
    )
    X[:, :2] += 1.2 * y[:, None]
    return X, y


# The paper's Table 1/2 algorithm suite, shrunk to test size.
PAPER_ALGORITHMS = {
    "XGB": lambda: GradientBoostingClassifier(
        n_estimators=20, max_depth=3, learning_rate=0.15
    ),
    "RF": lambda: RandomForestClassifier(n_estimators=24, random_state=0),
    "LR": lambda: LogisticRegression(),
    "KNN": lambda: KNeighborsClassifier(n_neighbors=5),
    "LVQ": lambda: LVQClassifier(prototypes_per_class=5),
    "SVM": lambda: LinearSVC(),
}


def _small_workbench(n_jobs: int) -> Workbench:
    """The small study with a 3-fold pipeline, every fan-out at ``n_jobs``."""
    return Workbench(
        SimulationConfig.small(),
        pipeline=DetectionPipeline(n_splits=3, n_jobs=n_jobs),
        n_jobs=n_jobs,
    )


class TestCrossValidationDeterminism:
    @pytest.mark.parametrize("name", sorted(PAPER_ALGORITHMS))
    def test_paper_algorithms_identical_across_worker_counts(self, dataset, name):
        X, y = dataset
        serial, parallel = (
            cross_validate(
                PAPER_ALGORITHMS[name](), X, y,
                n_splits=5, random_state=3, name=name, n_jobs=n_jobs,
            )
            for n_jobs in (1, 2)
        )
        assert serial.summary() == parallel.summary()

    def test_summary_identical_across_worker_counts(self, dataset):
        X, y = dataset
        kwargs = dict(n_splits=5, random_state=7)
        serial = cross_validate(DecisionTreeClassifier(), X, y, n_jobs=1, **kwargs)
        parallel = cross_validate(DecisionTreeClassifier(), X, y, n_jobs=4, **kwargs)
        assert serial.summary() == parallel.summary()

    def test_resampled_folds_identical(self, dataset):
        X, y = dataset
        kwargs = dict(n_splits=4, resample="smote", random_state=11)
        serial = cross_validate(DecisionTreeClassifier(), X, y, n_jobs=1, **kwargs)
        parallel = cross_validate(DecisionTreeClassifier(), X, y, n_jobs=3, **kwargs)
        assert serial.summary() == parallel.summary()

    def test_fold_metrics_survive_fanout(self, dataset):
        X, y = dataset
        obs.configure()
        try:
            cross_validate(
                DecisionTreeClassifier(), X, y, n_splits=4, random_state=3, name="DT", n_jobs=2
            )
            fit_hist = obs.histogram("ml_fit_seconds", {"model": "DT"})
            assert fit_hist.count == 4
            assert obs.counter("ml_folds_total", {"model": "DT"}).value == 4
        finally:
            obs.reset()


class TestForestDeterminism:
    def test_importances_and_predictions_identical(self, dataset):
        X, y = dataset
        serial = RandomForestClassifier(n_estimators=20, random_state=5, n_jobs=1).fit(X, y)
        parallel = RandomForestClassifier(n_estimators=20, random_state=5, n_jobs=4).fit(X, y)
        assert np.array_equal(serial.feature_importances_, parallel.feature_importances_)
        assert np.array_equal(serial.predict(X), parallel.predict(X))

    @pytest.mark.parametrize("n_estimators,n_jobs", [(8, 2), (7, 2), (7, 3)])
    def test_forest_unchanged_by_n_jobs_attribute(self, dataset, n_estimators, n_jobs):
        # n_jobs must be a pure execution knob: the fitted trees match
        # the historical serial construction draw for draw, also when the
        # trees do not divide evenly into the workers' blocks.
        X, y = dataset
        baseline = RandomForestClassifier(n_estimators=n_estimators, random_state=9).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=n_estimators, random_state=9, n_jobs=n_jobs
        ).fit(X, y)
        for a, b in zip(baseline.trees_, parallel.trees_, strict=True):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for a, b in zip(baseline.tree_importances_, parallel.tree_importances_, strict=True):
            assert np.array_equal(a, b)


class TestExperimentDeterminism:
    def test_reports_identical_across_worker_counts(self):
        # Day-engine shards, CV folds and importance-forest trees all fan
        # out inside the n_jobs=2 workbench.
        ids = ["fig04", "fig07", "fig09", "table1", "fig13", "table2", "fig14"]
        serial = run_many(ids, _small_workbench(1))
        parallel = run_many(ids, _small_workbench(2))
        for s, p in zip(serial, parallel, strict=True):
            assert s.experiment_id == p.experiment_id
            assert s.render() == p.render()
            assert s.metrics == p.metrics

    def test_each_cv_fold_is_fitted_once(self):
        # All reports share one pipeline result, so fanning the cells out
        # would refit every fold once per worker process.
        registry = obs.configure()
        try:
            run_many(["table1", "table2"], _small_workbench(2), n_jobs=2)
        finally:
            obs.reset()
        folds = {
            model: registry.counter("ml_folds_total", {"model": model}).value
            for model in PAPER_ALGORITHMS
        }
        # Three folds per dataset; LR is app-only, SVM device-only.
        assert folds == {"XGB": 6, "RF": 6, "LR": 3, "KNN": 6, "LVQ": 6, "SVM": 3}

    def test_run_many_rejects_unknown_ids(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            run_many(["fig04", "nope"], Workbench(SimulationConfig.small()))
