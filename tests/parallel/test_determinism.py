"""The determinism-under-parallelism contract (DESIGN.md §8).

Every assertion here is exact (``==`` / ``array_equal``), never
approximate: the contract is *byte-identical* outputs at any worker
count, not statistically similar ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.experiments import Workbench, run_experiment, run_many
from repro.ml import RandomForestClassifier, cross_validate
from repro.ml.model_selection import train_test_split
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel import spawn_seeds
from repro.simulation import SimulationConfig


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


class TestCrossValidationDeterminism:
    def test_summary_identical_across_worker_counts(self, dataset):
        X, y = dataset
        kwargs = dict(n_splits=5, n_repeats=2, random_state=7)
        serial = cross_validate(
            DecisionTreeClassifier(max_depth=4, random_state=0), X, y,
            n_jobs=1, **kwargs,
        )
        parallel = cross_validate(
            DecisionTreeClassifier(max_depth=4, random_state=0), X, y,
            n_jobs=4, **kwargs,
        )
        assert serial.summary() == parallel.summary()

    def test_resampled_folds_identical(self, dataset):
        X, y = dataset
        kwargs = dict(n_splits=4, resample="smote", random_state=11)
        serial = cross_validate(
            DecisionTreeClassifier(max_depth=3, random_state=1), X, y,
            n_jobs=1, **kwargs,
        )
        parallel = cross_validate(
            DecisionTreeClassifier(max_depth=3, random_state=1), X, y,
            n_jobs=3, **kwargs,
        )
        assert serial.summary() == parallel.summary()

    def test_fold_metrics_survive_fanout(self, dataset):
        X, y = dataset
        obs.configure(metrics=True, tracing=False, registry=obs.MetricsRegistry())
        try:
            cross_validate(
                DecisionTreeClassifier(max_depth=3, random_state=1), X, y,
                n_splits=4, random_state=3, name="DT", n_jobs=2,
            )
            fit_hist = obs.histogram("ml_fit_seconds", {"model": "DT"})
            assert fit_hist.count == 4
            assert obs.counter("ml_folds_total", {"model": "DT"}).value == 4
        finally:
            obs.reset()


class TestForestDeterminism:
    def test_importances_and_oob_identical(self, dataset):
        X, y = dataset
        serial = RandomForestClassifier(n_estimators=20, random_state=5, n_jobs=1).fit(X, y)
        parallel = RandomForestClassifier(n_estimators=20, random_state=5, n_jobs=4).fit(X, y)
        assert np.array_equal(serial.feature_importances_, parallel.feature_importances_)
        assert serial.oob_score() == parallel.oob_score()
        assert np.array_equal(serial.predict(X), parallel.predict(X))

    def test_forest_unchanged_by_n_jobs_attribute(self, dataset):
        # n_jobs must be a pure execution knob: the fitted trees match
        # the historical serial construction draw for draw.
        X, y = dataset
        baseline = RandomForestClassifier(n_estimators=8, random_state=9).fit(X, y)
        parallel = RandomForestClassifier(n_estimators=8, random_state=9, n_jobs=2).fit(X, y)
        for a, b in zip(baseline.estimators_, parallel.estimators_, strict=True):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert getattr(a.tree_, name).tobytes() == getattr(b.tree_, name).tobytes()
            assert np.array_equal(a.feature_importances_, b.feature_importances_)


class TestExperimentDeterminism:
    def test_reports_identical_across_worker_counts(self):
        ids = ["fig04", "fig07", "fig09"]
        serial_bench = Workbench(SimulationConfig.small())
        serial = [run_experiment(eid, serial_bench) for eid in ids]
        parallel = run_many(ids, Workbench(SimulationConfig.small()), n_jobs=2)
        for s, p in zip(serial, parallel):
            assert s.experiment_id == p.experiment_id
            assert s.render() == p.render()
            assert s.metrics == p.metrics

    def test_run_many_rejects_unknown_ids(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            run_many(["fig04", "nope"], Workbench(SimulationConfig.small()))


class TestTrainTestSplitGuard:
    def test_two_sample_class_keeps_a_training_sample(self):
        # Regression: test_size=0.8 on a 2-sample class used to round to
        # k=2 and consume the class whole, leaving the training split
        # without it.
        X = np.arange(24, dtype=np.float64).reshape(12, 2)
        y = np.array([0] * 10 + [1] * 2)
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_size=0.8, random_state=0
        )
        assert (y_train == 1).sum() >= 1
        assert (y_train == 0).sum() >= 1
        assert len(y_train) + len(y_test) == 12

    def test_every_seed_preserves_all_classes(self):
        X = np.arange(20, dtype=np.float64).reshape(10, 2)
        y = np.array([0] * 8 + [1] * 2)
        for seed in range(10):
            _, _, y_train, _ = train_test_split(X, y, test_size=0.5, random_state=seed)
            assert set(np.unique(y_train)) == {0, 1}
