"""Tests for prior-work baselines and model serialization."""

import json

import numpy as np
import pytest

from repro.core.app_classifier import APP_ALGORITHMS
from repro.core.baselines import (
    BurstDetector,
    LockstepDetector,
    evaluate_baseline_on_devices,
)
from repro.core.datasets import build_app_dataset, build_device_dataset
from repro.core.detector import Detector
from repro.core.device_classifier import DEVICE_ALGORITHMS
from repro.core.model_io import (
    export_boosted_model,
    export_detector,
    import_boosted_model,
    import_detector,
)
from repro.ml import GradientBoostingClassifier
from repro.playstore.reviews import ReviewStore


class TestLockstepDetector:
    def make_lockstep_store(self):
        """3 accounts reviewing the same 4 apps within hours = lockstep."""
        store = ReviewStore()
        for i, account in enumerate(("w1", "w2", "w3")):
            for j in range(4):
                store.post_review(f"app{j}", account, 5, j * 86400.0 + i * 3600.0)
        # One organic account with unrelated reviews months apart.
        for j in range(3):
            store.post_review(f"other{j}", "organic", 4, j * 90 * 86400.0)
        return store

    def test_lockstep_group_flagged(self):
        store = self.make_lockstep_store()
        detector = LockstepDetector()
        verdicts = {v.google_id: v for v in detector.detect(store, ["w1", "w2", "w3", "organic"])}
        assert verdicts["w1"].flagged and verdicts["w2"].flagged and verdicts["w3"].flagged
        assert not verdicts["organic"].flagged

    def test_time_window_breaks_lockstep(self):
        store = ReviewStore()
        # Same apps but weeks apart: no lockstep.
        for i, account in enumerate(("a", "b", "c")):
            for j in range(4):
                store.post_review(f"app{j}", account, 5, j * 86400.0 + i * 30 * 86400.0)
        detector = LockstepDetector()
        assert not any(v.flagged for v in detector.detect(store, ["a", "b", "c"]))

    def test_small_group_not_flagged(self):
        store = ReviewStore()
        for i, account in enumerate(("a", "b")):
            for j in range(4):
                store.post_review(f"app{j}", account, 5, j * 86400.0 + i * 60.0)
        detector = LockstepDetector()
        assert not any(v.flagged for v in detector.detect(store, ["a", "b"]))


class TestBurstDetector:
    def test_burst_flagged(self):
        store = ReviewStore()
        for j in range(8):
            store.post_review(f"app{j}", "burster", 5, j * 3600.0)  # 8 in 7 hours
        detector = BurstDetector()
        verdict = detector.detect(store, ["burster"])[0]
        assert verdict.flagged
        assert verdict.score >= 5

    def test_slow_reviewer_not_flagged(self):
        store = ReviewStore()
        for j in range(8):
            store.post_review(f"app{j}", "slow", 5, j * 30 * 86400.0)
        detector = BurstDetector()
        assert not detector.detect(store, ["slow"])[0].flagged

    def test_negative_bursts_not_flagged(self):
        """A burst of 1-star reviews (review-bombing) is not promotion."""
        store = ReviewStore()
        for j in range(8):
            store.post_review(f"app{j}", "bomber", 1, j * 3600.0)
        detector = BurstDetector()
        assert not detector.detect(store, ["bomber"])[0].flagged

    def test_empty_account(self):
        detector = BurstDetector()
        assert detector.detect(ReviewStore(), ["ghost"])[0].score == 0.0


class TestBaselineOnStudy:
    def test_baselines_miss_organic_workers(self, study, observations):
        """The paper's motivating claim: burst/lockstep detectors catch
        dedicated workers far better than organic ones."""
        detector = BurstDetector()
        rates = evaluate_baseline_on_devices(detector, study.review_store, observations)
        assert rates["recall_dedicated"] >= rates["recall_organic"]
        assert rates["fpr_regular"] <= 0.3

    def test_rates_are_fractions(self, study, observations):
        detector = BurstDetector()
        rates = evaluate_baseline_on_devices(detector, study.review_store, observations)
        for value in rates.values():
            assert 0.0 <= value <= 1.0


class TestModelIO:
    def test_booster_roundtrip_predictions(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=15).fit(X, y)
        clone = import_boosted_model(json.loads(json.dumps(export_boosted_model(model))))
        assert clone.decision_function(X).tobytes() == model.decision_function(X).tobytes()
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))

    def test_version_1_payload_keeps_its_meaning(self):
        # A hand-written FORMAT_VERSION 1 document: nested split nodes
        # and leaf weights, as every earlier export wrote them.
        payload = {
            "format_version": 1,
            "type": "gradient_boosting",
            "learning_rate": 0.5,
            "base_margin": 0.0,
            "classes": [0, 1],
            "n_features": 2,
            "trees": [
                {
                    "feature": 0,
                    "threshold": 1.0,
                    "left": {"leaf": -1.0},
                    "right": {
                        "feature": 1,
                        "threshold": 0.0,
                        "left": {"leaf": 0.5},
                        "right": {"leaf": 2.0},
                    },
                },
                {"leaf": 0.25},
            ],
        }
        model = import_boosted_model(payload)
        X = np.array([[0.0, 5.0], [2.0, -1.0], [2.0, 3.0], [1.0, 0.0]])
        np.testing.assert_array_equal(model.decision_function(X), [-0.375, 0.375, 1.125, -0.375])
        np.testing.assert_array_equal(model.predict(X), [0, 1, 1, 0])
        assert export_boosted_model(model) == payload
        with pytest.raises(ValueError, match="expected 2 features"):
            model.predict(np.zeros((1, 3)))

    def test_export_is_json_serializable(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=5).fit(X, y)
        text = json.dumps(export_boosted_model(model))
        assert "gradient_boosting" in text

    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError):
            export_boosted_model(GradientBoostingClassifier())

    def test_wrong_payload_rejected(self):
        with pytest.raises(ValueError):
            import_boosted_model({"type": "random_forest"})

    def test_detector_roundtrip(self, study, observations):
        dataset = build_app_dataset(study, observations)
        detector = Detector(APP_ALGORITHMS()["XGB"]).fit(dataset)
        text = export_detector(detector, "app")
        assert json.loads(text)["detector"] == "app"
        restored = import_detector(text)
        np.testing.assert_array_equal(
            restored.predict(dataset.X), detector.predict(dataset.X)
        )
        assert restored.feature_names == detector.feature_names

    def test_detector_roundtrip_handles_nan(self, study, observations):
        dataset = build_app_dataset(study, observations)
        detector = Detector(APP_ALGORITHMS()["XGB"]).fit(dataset)
        restored = import_detector(export_detector(detector, "app"))
        row = dataset.X[:3].copy()
        row[:, ::2] = np.nan  # the restored imputer fills these
        np.testing.assert_array_equal(restored.predict(row), detector.predict(row))

    def test_device_detector_roundtrip_keeps_worker_probability(self, observations):
        dataset = build_device_dataset(observations)
        detector = Detector(DEVICE_ALGORITHMS()["XGB"]).fit(dataset)
        text = export_detector(detector, "device")
        assert json.loads(text)["detector"] == "device"
        restored = import_detector(text)
        X = dataset.X.copy()
        X[::3, ::2] = np.nan  # the restored imputer fills these
        assert np.isnan(X).any()
        expected = detector.positive_probability(X)
        assert restored.positive_probability(X).tobytes() == expected.tobytes()
        assert restored.feature_names == detector.feature_names
