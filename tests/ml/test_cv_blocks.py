"""Cross-validation in blocks of folds.

``cross_validate`` fits each worker's block of folds through the
estimator's ``fit_folds``: LVQ steps a block's codebooks in lockstep,
and every other learner fits one fold at a time.  Every check here is
exact: the lockstep codebooks against the one-sample-per-step oracle,
the fold reports at every worker count, each fold's labels against its
model's own ``predict``, and the per-fold metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.app_classifier import APP_ALGORITHMS
from repro.core.device_classifier import DEVICE_ALGORITHMS
from repro.ml import LogisticRegression, LVQClassifier, cross_validate, model_selection
from tests import oracles


def spy_fit_folds(monkeypatch, estimator) -> list[tuple[list, list]]:
    """Record every ``fit_folds`` call of ``estimator``'s class: the
    ``(X, y)`` folds it receives and the models it yields."""
    calls = []
    fit_folds = type(estimator).fit_folds

    def spy(self, folds):
        models = []
        calls.append((folds, models))
        for fitted in fit_folds(self, folds):
            models.extend(fitted)
            yield fitted

    monkeypatch.setattr(type(estimator), "fit_folds", spy)
    return calls


def spy_blocks(monkeypatch) -> list[list[tuple]]:
    """Record the ``(train, test, resample_seed)`` folds of every block
    ``cross_validate`` submits."""
    blocks = []
    parallel_map = model_selection.parallel_map

    def spy(fn, tasks, n_jobs):
        blocks.extend(task[3] for task in tasks)
        return parallel_map(fn, tasks, n_jobs=n_jobs)

    monkeypatch.setattr(model_selection, "parallel_map", spy)
    return blocks


def suite_case(pipeline_result, suite: str, name: str):
    """The small study's dataset, learner and resampling for ``name`` of
    the Table 1 (``"app"``) or Table 2 (``"device"``) suite."""
    if suite == "app":
        return pipeline_result.app_dataset, APP_ALGORITHMS()[name], None
    return pipeline_result.device_dataset, DEVICE_ALGORITHMS()[name], "smote"


def assert_matches_oracle(model, X_train, y_train, X):
    oracle = oracles.LVQ1(model.prototypes_per_class).fit(X_train, y_train)
    assert model.prototypes_.tobytes() == oracle.prototypes.tobytes()
    assert model.prototype_labels_.tolist() == oracle.prototype_labels.tolist()
    assert model.predict_proba(X).tobytes() == oracle.predict_proba(X).tobytes()


def few_positives(n: int, n_positive: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, size=n_positive, replace=False)] = 1
    return rng.normal(size=(n, 3)) + y[:, None], y


class TestLVQLockstep:
    @pytest.mark.parametrize("suite", ["app", "device"])
    def test_cv_codebooks_equal_per_fold_oracle_fits(self, monkeypatch, pipeline_result, suite):
        # The small study's ten app folds as Table 1 fits them, and its
        # SMOTE'd device folds as Table 2 does: these differ in length.
        dataset, estimator, resample = suite_case(pipeline_result, suite, "LVQ")
        calls = spy_fit_folds(monkeypatch, estimator)
        cross_validate(
            estimator, dataset.X, dataset.y, n_splits=10, resample=resample, random_state=0,
            name="LVQ", n_jobs=1,
        )
        ((folds, models),) = calls  # one lockstep block of all ten folds
        assert len(models) == 10
        if suite == "device":
            assert len({X_train.shape[0] for X_train, _ in folds}) > 1
        for model, (X_train, y_train) in zip(models, folds, strict=True):
            assert_matches_oracle(model, X_train, y_train, dataset.X)

    def test_folds_of_unequal_length(self, monkeypatch):
        # 103 rows in ten folds: training folds of 91 to 93 rows, so the
        # shorter folds sit out the last steps of every epoch.
        X, y = few_positives(103, 31, seed=4)
        estimator = LVQClassifier(prototypes_per_class=5)
        calls = spy_fit_folds(monkeypatch, estimator)
        cross_validate(estimator, X, y, n_splits=10, random_state=2, n_jobs=1)
        ((folds, models),) = calls
        assert {X_train.shape[0] for X_train, _ in folds} == {91, 92, 93}
        for model, (X_train, y_train) in zip(models, folds, strict=True):
            assert_matches_oracle(model, X_train, y_train, X)

    def test_ragged_codebooks(self, monkeypatch):
        # Six positives in four folds leave four or five in each training
        # fold, against five prototypes per class: codebooks of 9 and 10.
        X, y = few_positives(40, 6, seed=1)
        estimator = LVQClassifier(prototypes_per_class=5)
        calls = spy_fit_folds(monkeypatch, estimator)
        cross_validate(estimator, X, y, n_splits=4, random_state=0, n_jobs=1)
        ((folds, models),) = calls
        assert sorted(len(model.prototypes_) for model in models) == [9, 9, 10, 10]
        for model, (X_train, y_train) in zip(models, folds, strict=True):
            assert_matches_oracle(model, X_train, y_train, X)

    def test_three_classes(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 3, 90)
        X = rng.normal(size=(90, 4)) + y[:, None]
        folds = [(X[: 80 + k], y[: 80 + k]) for k in range(4)]
        (models,) = LVQClassifier(prototypes_per_class=3).fit_folds(folds)
        for model, (X_train, y_train) in zip(models, folds, strict=True):
            assert model.classes_.tolist() == [0, 1, 2]
            assert_matches_oracle(model, X_train, y_train, X)

    def test_fit_is_the_one_fold_block(self, blobs):
        X, y = blobs
        model = LVQClassifier().fit(X, y)
        assert_matches_oracle(model, X, y, X)


class TestFoldBlocks:
    @pytest.mark.parametrize("n_jobs,sizes", [(1, [10]), (2, [5, 5]), (3, [4, 3, 3])])
    def test_one_contiguous_block_per_worker(self, monkeypatch, blobs, n_jobs, sizes):
        X, y = blobs
        blocks = spy_blocks(monkeypatch)
        cross_validate(LogisticRegression(), X, y, n_splits=10, random_state=0, n_jobs=n_jobs)
        assert [len(block) for block in blocks] == sizes
        tests = np.concatenate([test for block in blocks for _, test, _ in block])
        assert np.array_equal(np.sort(tests), np.arange(len(y)))

    @pytest.mark.parametrize(
        "make", [lambda: LVQClassifier(prototypes_per_class=5), LogisticRegression],
        ids=["lvq", "logistic"],
    )
    def test_reports_identical_at_one_two_and_three_workers(self, make):
        X, y = few_positives(103, 31, seed=4)
        results = [
            cross_validate(make(), X, y, n_splits=10, resample="smote", random_state=5, n_jobs=k)
            for k in (1, 2, 3)
        ]
        for result in results[1:]:
            assert result.fold_reports == results[0].fold_reports

    @pytest.mark.parametrize(
        "suite,name",
        [("app", name) for name in APP_ALGORITHMS()]
        + [("device", name) for name in DEVICE_ALGORITHMS()],
    )
    def test_fold_labels_equal_the_models_predict(self, monkeypatch, pipeline_result, suite, name):
        # Each fold's labels come from the predict_proba that also gives
        # its scores, except for a model with its own predict (the SVM).
        dataset, estimator, resample = suite_case(pipeline_result, suite, name)
        calls = spy_fit_folds(monkeypatch, estimator)
        blocks = spy_blocks(monkeypatch)
        reported = []
        classification_report = model_selection.classification_report

        def spy_report(y_true, y_pred, y_score):
            reported.append(y_pred)
            return classification_report(y_true, y_pred, y_score)

        monkeypatch.setattr(model_selection, "classification_report", spy_report)
        cross_validate(
            estimator, dataset.X, dataset.y, n_splits=3, resample=resample, random_state=0,
            n_jobs=1,
        )
        models = [model for _, block_models in calls for model in block_models]
        tests = [test for block in blocks for _, test, _ in block]
        for model, test, labels in zip(models, tests, reported, strict=True):
            assert np.array_equal(labels, model.predict(dataset.X[test]))


class TestFoldMetrics:
    def test_lockstep_folds_share_the_block_fit_time(self, blobs):
        X, y = blobs
        registry = obs.configure(metrics=True, tracing=False)
        try:
            with obs.timer() as cv:
                cross_validate(
                    LVQClassifier(), X, y, n_splits=4, random_state=0, name="LVQ", n_jobs=1
                )
        finally:
            obs.reset()
        assert registry.value("ml_folds_total", {"model": "LVQ"}) == 4
        (fit_hist,) = registry.series("ml_fit_seconds")
        assert fit_hist.count == 4
        # Four equal observations, the block's time over four: one bucket,
        # and together no more than the whole cross-validation took.
        assert {count for _, count in fit_hist.cumulative_buckets()} <= {0, 4}
        assert fit_hist.sum <= cv.elapsed
