"""Ablation: engagement features vs static metadata (DESIGN.md §5).

The paper argues the *usage/engagement* features (reviews-from-device,
install-to-review, foreground use) are what detect ASO work, while
static metadata (permissions, VT flags) cannot (Figs 11-12's negative
results).  This bench retrains the device classifier on feature subsets
and compares.
"""

import numpy as np

from repro.core.device_classifier import DEVICE_ALGORITHMS
from repro.experiments.common import ExperimentReport
from repro.ml import cross_validate
from repro.reporting import render_table

ENGAGEMENT_FEATURES = (
    "n_stopped_apps",
    "daily_installs",
    "daily_uninstalls",
    "n_gmail_accounts",
    "n_non_gmail_accounts",
    "n_account_types",
    "n_installed_and_reviewed",
    "total_apps_reviewed",
    "total_reviews",
    "reviews_per_account_mean",
    "apps_used_per_day",
    "app_suspiciousness",
)
METADATA_FEATURES = (
    "n_preinstalled_apps",
    "n_user_installed_apps",
    "snapshots_per_day",
)


def _subset(dataset, names):
    columns = [dataset.feature_names.index(n) for n in names]
    return dataset.X[:, columns]


def test_ablation_feature_families(workbench, pipeline_result, emit):
    dataset = pipeline_result.device_dataset
    results = {}
    rows = []
    for label, names in (
        ("all", dataset.feature_names),
        ("engagement-only", ENGAGEMENT_FEATURES),
        ("metadata-only", METADATA_FEATURES),
    ):
        if label == "all":
            # Table 2's own XGB run: same estimator, folds and seed.
            cv = pipeline_result.device_evaluation.results["XGB"]
        else:
            cv = cross_validate(
                DEVICE_ALGORITHMS()["XGB"],
                _subset(dataset, names),
                dataset.y,
                n_splits=10,
                resample="smote",
                random_state=0,
            )
        results[label] = cv.f1
        rows.append((label, len(names), cv.precision, cv.recall, cv.f1))

    emit(
        ExperimentReport(
            "ablation_features",
            "Device classifier by feature family (engagement vs metadata)",
            lines=[render_table(["features", "n", "precision", "recall", "F1"], rows)],
            metrics=results,
        )
    )
    # Engagement features carry the detector; metadata alone lags well
    # behind (the paper's Figs 11-12 negative results).
    assert results["engagement-only"] >= results["all"] - 0.03
    assert results["metadata-only"] <= results["engagement-only"] - 0.05
