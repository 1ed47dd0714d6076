"""Tests for the end-to-end pipeline, classifiers and on-device detection
(shared small study + one shared pipeline run)."""

import dataclasses

import numpy as np
import pytest

from repro.core import DetectionPipeline, OnDeviceDetector
from repro.core.app_classifier import APP_ALGORITHMS
from repro.core.datasets import build_app_dataset, build_device_dataset
from repro.core.detector import Detector
from repro.core.device_classifier import DEVICE_ALGORITHMS
from repro.statstests import TooFewSamplesError


class TestPipelineResult:
    def test_table1_algorithms_present(self, pipeline_result):
        assert set(pipeline_result.app_evaluation.results) == {
            "XGB", "RF", "LR", "KNN", "LVQ",
        }

    def test_table2_algorithms_present(self, pipeline_result):
        assert set(pipeline_result.device_evaluation.results) == {
            "XGB", "RF", "SVM", "KNN", "LVQ",
        }

    def test_app_classifier_high_f1(self, pipeline_result):
        best = pipeline_result.app_evaluation.table_rows()[0]
        assert best[3] >= 0.9  # F1 of the winner

    def test_device_classifier_high_f1(self, pipeline_result):
        best = pipeline_result.device_evaluation.table_rows()[0]
        assert best[3] >= 0.85

    def test_suspiciousness_in_unit_interval(self, pipeline_result):
        for score in pipeline_result.suspiciousness.values():
            assert 0.0 <= score <= 1.0

    def test_workers_more_suspicious(self, pipeline_result):
        worker_scores = [
            v.app_suspiciousness for v in pipeline_result.verdicts if v.ground_truth_worker
        ]
        regular_scores = [
            v.app_suspiciousness for v in pipeline_result.verdicts if not v.ground_truth_worker
        ]
        assert np.mean(worker_scores) > np.mean(regular_scores) + 0.2

    def test_verdicts_cover_all_observations(self, pipeline_result):
        assert len(pipeline_result.verdicts) == len(pipeline_result.observations)

    def test_organic_split_partitions_workers(self, pipeline_result):
        organic, dedicated = pipeline_result.organic_split()
        assert organic + dedicated == len(pipeline_result.worker_verdicts())

    def test_worker_detection_recall(self, pipeline_result):
        workers = pipeline_result.worker_verdicts()
        detected = sum(1 for v in workers if v.predicted_worker)
        assert detected / len(workers) >= 0.8

    def test_regular_false_positives_low(self, pipeline_result):
        regulars = [v for v in pipeline_result.verdicts if not v.ground_truth_worker]
        flagged = sum(1 for v in regulars if v.predicted_worker)
        assert flagged / len(regulars) <= 0.25

    def test_feature_importances_are_distribution(self, pipeline_result):
        for evaluation in (
            pipeline_result.app_evaluation,
            pipeline_result.device_evaluation,
        ):
            total = sum(evaluation.feature_importances.values())
            assert total == pytest.approx(1.0, abs=1e-6)


class TestFoldCount:
    """The fold count is clamped to the smaller class; an empty class (an
    evasion world can hold no regular app instance) leaves every fold to
    the other, and only a one-instance class cannot be split."""

    @pytest.mark.parametrize(
        "suspicious,regular,folds", [(60, 250, 10), (50, 8, 8), (50, 0, 2), (3, 2, 2)]
    )
    def test_clamped_to_the_smaller_class(self, suspicious, regular, folds):
        pipeline = DetectionPipeline(n_splits=10)
        assert pipeline._fold_count("app", suspicious=suspicious, regular=regular) == folds

    def test_one_instance_class_is_named(self):
        with pytest.raises(TooFewSamplesError, match="device dataset: the worker class has size 1"):
            DetectionPipeline(n_splits=10)._fold_count("device", worker=1, regular=24)


def app_detector() -> Detector:
    return Detector(APP_ALGORITHMS()["XGB"])


def device_detector() -> Detector:
    return Detector(DEVICE_ALGORITHMS()["XGB"])


class TestAppDetector:
    def test_fit_predict_roundtrip(self, study, observations):
        dataset = build_app_dataset(study, observations)
        model = app_detector().fit(dataset)
        predictions = model.predict(dataset.X)
        assert set(np.unique(predictions)) <= {0, 1}
        assert np.mean(predictions == dataset.y) >= 0.95

    def test_handles_nan_input(self, study, observations):
        dataset = build_app_dataset(study, observations)
        model = app_detector().fit(dataset)
        row = dataset.X[0].copy()
        row[0] = np.nan
        assert model.predict(row).shape == (1,)


class TestDeviceDetector:
    def test_fit_predict_roundtrip(self, observations):
        dataset = build_device_dataset(observations)
        model = device_detector().fit(dataset)
        assert model.feature_names == dataset.feature_names
        predictions = model.predict(dataset.X)
        assert set(np.unique(predictions)) <= {0, 1}
        assert np.mean(predictions == dataset.y) >= 0.95
        # predict argmaxes [1 - p, p]: label 1 exactly where p > 0.5.
        p_worker = model.positive_probability(dataset.X)
        np.testing.assert_array_equal(predictions, (p_worker > 0.5).astype(int))

    def test_single_row_with_nan_is_imputed(self, observations):
        dataset = build_device_dataset(observations)
        model = device_detector().fit(dataset)
        row = np.full(dataset.X.shape[1], np.nan)
        assert model.predict(row).shape == (1,)
        p_worker = model.positive_probability(row)
        assert p_worker.shape == (1,) and 0.0 <= p_worker[0] <= 1.0

    def test_model_that_never_saw_a_worker_flags_nobody(
        self, study, observations, pipeline_result
    ):
        # Fit on one class, the booster keeps only that class and
        # predicts it with probability 1: that is P(regular), not
        # P(worker).
        regulars = [obs for obs in observations if not obs.is_worker]
        model = device_detector().fit(build_device_dataset(regulars))
        p_worker = model.positive_probability(build_device_dataset(observations).X)
        np.testing.assert_array_equal(p_worker, np.zeros(len(observations)))

        detector = OnDeviceDetector(pipeline_result.app_model, model)
        reports = [detector.scan(obs, study.catalog, study.vt_client) for obs in observations]
        assert not any(report.device_flagged for report in reports)
        assert all(report.worker_probability == 0.0 for report in reports)
        verdicts = DetectionPipeline()._verdicts(
            observations, model, pipeline_result.suspiciousness
        )
        assert not any(verdict.predicted_worker for verdict in verdicts)


class TestOnDeviceDetector:
    @pytest.fixture()
    def detector(self, pipeline_result):
        return OnDeviceDetector(
            pipeline_result.app_model, pipeline_result.device_model
        )

    def test_report_has_no_identifying_fields(self, detector, study, pipeline_result):
        report = detector.scan(pipeline_result.observations[0], study.catalog)
        field_names = {f.name for f in dataclasses.fields(report)}
        assert field_names == {
            "n_apps_scanned",
            "n_apps_flagged",
            "app_suspiciousness",
            "device_flagged",
            "worker_probability",
        }
        for value in dataclasses.asdict(report).values():
            assert isinstance(value, (int, float, bool))

    def test_scan_accuracy(self, detector, study, pipeline_result):
        correct = sum(
            detector.scan(obs, study.catalog, study.vt_client).device_flagged
            == obs.is_worker
            for obs in pipeline_result.observations
        )
        assert correct / len(pipeline_result.observations) >= 0.85

    def test_suspiciousness_consistent_with_flags(self, detector, study, pipeline_result):
        report = detector.scan(pipeline_result.observations[0], study.catalog)
        if report.n_apps_scanned:
            assert report.app_suspiciousness == pytest.approx(
                report.n_apps_flagged / report.n_apps_scanned
            )

    def test_on_device_verdict_is_the_pipeline_verdict(
        self, detector, study, pipeline_result
    ):
        # §9 ships the pipeline's models to the device, and scan shares
        # DetectionPipeline.score_devices' Play-hosted user-install filter
        # and feature path: what leaves the device is the verdict the
        # pipeline reached, bit for bit.
        assert len(pipeline_result.verdicts) == len(pipeline_result.observations)
        for obs, verdict in zip(pipeline_result.observations, pipeline_result.verdicts):
            assert verdict.install_id == obs.install_id
            report = detector.scan(obs, study.catalog, study.vt_client)
            assert report.app_suspiciousness == pipeline_result.suspiciousness[
                obs.install_id
            ], obs.install_id
            assert report.app_suspiciousness == verdict.app_suspiciousness, obs.install_id
            assert report.worker_probability == verdict.worker_probability, obs.install_id
            assert report.device_flagged == verdict.predicted_worker, obs.install_id
