"""Tests for the end-to-end pipeline, classifiers and on-device detection
(shared small study + one shared pipeline run)."""

import dataclasses

import numpy as np
import pytest

from repro.core import OnDeviceDetector
from repro.core.app_classifier import AppClassifier
from repro.core.datasets import build_app_dataset, build_device_dataset
from repro.core.device_classifier import DeviceClassifier


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


class TestAppClassifierModel:
    def test_fit_predict_roundtrip(self, study, observations):
        dataset = build_app_dataset(study, observations)
        model = AppClassifier().fit(dataset)
        predictions = model.predict(dataset.X)
        assert set(np.unique(predictions)) <= {0, 1}
        assert np.mean(predictions == dataset.y) >= 0.95

    def test_handles_nan_input(self, study, observations):
        dataset = build_app_dataset(study, observations)
        model = AppClassifier().fit(dataset)
        row = dataset.X[0].copy()
        row[0] = np.nan
        assert model.predict(row).shape == (1,)


class TestDeviceClassifierModel:
    def test_fit_predict_roundtrip(self, study, observations):
        dataset = build_device_dataset(study, observations)
        model = DeviceClassifier().fit(dataset)
        assert model.feature_names == dataset.feature_names
        predictions = model.predict(dataset.X)
        assert set(np.unique(predictions)) <= {0, 1}
        assert np.mean(predictions == dataset.y) >= 0.95
        proba = model.predict_proba(dataset.X)
        np.testing.assert_array_equal(predictions, np.argmax(proba, axis=1))

    def test_single_row_with_nan_is_imputed(self, study, observations):
        dataset = build_device_dataset(study, observations)
        model = DeviceClassifier().fit(dataset)
        row = np.full(dataset.X.shape[1], np.nan)
        assert model.predict(row).shape == (1,)
        assert np.all(np.isfinite(model.predict_proba(row)))


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

    def test_scan_scores_the_same_apps_as_the_pipeline(
        self, detector, study, pipeline_result
    ):
        # scan and DetectionPipeline.score_devices share the Play-hosted
        # user-install filter and the feature path, so the on-device
        # suspiciousness is exactly the pipeline's.
        for obs in pipeline_result.observations:
            report = detector.scan(obs, study.catalog, study.vt_client)
            assert report.app_suspiciousness == pipeline_result.suspiciousness[
                obs.install_id
            ], obs.install_id
