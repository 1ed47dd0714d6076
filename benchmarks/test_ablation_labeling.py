"""Ablation: §7.2 labeling thresholds (DESIGN.md §5).

Sweeps the co-install threshold (paper: >= 5 worker devices) and
reports dataset sizes and XGB F1 under each.  The popularity bar for
regular apps (paper: >= 15,000 reviews) stays at the paper's value.
"""

from repro.core.app_classifier import APP_ALGORITHMS
from repro.core.datasets import build_app_dataset
from repro.experiments.common import ExperimentReport
from repro.ml import cross_validate
from repro.reporting import render_table


def test_ablation_labeling_thresholds(workbench, emit):
    data = workbench.data
    observations = workbench.observations
    rows = []
    metrics = {}
    for min_devices in (2, 5, 10):
        dataset = build_app_dataset(data, observations, min_worker_devices=min_devices)
        cv = cross_validate(
            APP_ALGORITHMS()["XGB"],
            dataset.X,
            dataset.y,
            n_splits=min(10, dataset.n_regular),
            random_state=0,
        )
        rows.append(
            (
                f"min co-install devices = {min_devices}",
                len(dataset.labeling.suspicious_apps),
                len(dataset.labeling.regular_apps),
                dataset.n_suspicious,
                dataset.n_regular,
                cv.f1,
            )
        )
        metrics[f"f1_min{min_devices}"] = cv.f1
        metrics[f"instances_min{min_devices}"] = float(len(dataset.y))

    emit(
        ExperimentReport(
            "ablation_labeling",
            "App-labeling threshold sweep (§7.2 rules)",
            lines=[
                render_table(
                    ["rule", "susp apps", "reg apps", "susp inst", "reg inst", "XGB F1"],
                    rows,
                )
            ],
            metrics=metrics,
        )
    )
    # Stricter co-install evidence shrinks the dataset but the classifier
    # stays strong — the labels are not the bottleneck.
    assert metrics["instances_min10"] <= metrics["instances_min2"]
    assert min(v for k, v in metrics.items() if k.startswith("f1_")) >= 0.9
