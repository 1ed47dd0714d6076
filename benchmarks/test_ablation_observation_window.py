"""Ablation: how many days of telemetry does detection need?

The paper keeps devices with at least two days of snapshots (§7.2,
§8.2) without justifying the threshold.  This bench truncates every
observation to its first k days, rebuilds the device features, and
measures the classifier across k — quantifying the telemetry/accuracy
tradeoff a deploying store would face.
"""

from repro.core.datasets import build_device_dataset
from repro.core.device_classifier import DEVICE_ALGORITHMS
from repro.experiments.common import ExperimentReport
from repro.ml import cross_validate
from repro.reporting import render_table


def test_ablation_observation_window(workbench, pipeline_result, emit):
    data = workbench.data
    observations = pipeline_result.observations
    suspiciousness = pipeline_result.suspiciousness

    rows = []
    metrics = {}
    for days in (1, 2, 5, 10):
        truncated = [obs.truncated(days) for obs in observations]
        dataset = build_device_dataset(data, truncated, suspiciousness)
        cv = cross_validate(
            DEVICE_ALGORITHMS()["XGB"],
            dataset.X,
            dataset.y,
            n_splits=10,
            resample="smote",
            random_state=0,
        )
        rows.append((days, cv.precision, cv.recall, cv.f1))
        metrics[f"f1_{days}d"] = cv.f1

    emit(
        ExperimentReport(
            "ablation_window",
            "Device classifier vs observation-window length (days of telemetry)",
            lines=[
                render_table(["days observed", "precision", "recall", "F1"], rows),
                "The review history (Play-side) carries most of the signal, so "
                "even short windows work; longer windows sharpen the churn and "
                "usage features.",
            ],
            metrics=metrics,
        )
    )
    # Even a single observed day detects well (review history dominates),
    # and more telemetry never hurts much.
    assert metrics["f1_1d"] >= 0.85
    assert metrics["f1_10d"] >= metrics["f1_1d"] - 0.03
