"""Bench: Table 1 — app-usage classifier (XGB/RF/LR/KNN/LVQ) plus the
balanced-dataset variants (§7.2)."""

from repro.core.app_classifier import APP_ALGORITHMS
from repro.experiments import run_experiment
from repro.ml import cross_validate
from repro.reporting import render_table


def test_table1_app_classifier(workbench, emit):
    report = emit(run_experiment("table1", workbench))
    # Shape: XGB wins (or ties within noise) with a very high F1; every
    # algorithm lands in the 90s — as in the paper.
    best_f1 = max(v for k, v in report.metrics.items() if k.endswith("_f1"))
    assert report.metrics["XGB_f1"] >= best_f1 - 0.005
    assert report.metrics["XGB_f1"] >= 0.97
    assert report.metrics["xgb_auc"] >= 0.95
    assert all(
        value >= 0.85 for key, value in report.metrics.items() if key.endswith("_f1")
    )


def test_table1_balanced_variants(workbench, pipeline_result, emit):
    """§7.2 'Performance Under Balanced Datasets': under- and over-
    sampling keep XGB's F1 within about a point of the unbalanced run."""
    from repro.experiments.common import ExperimentReport

    dataset = pipeline_result.app_dataset
    rows = []
    metrics = {}
    for strategy in ("none", "undersample", "oversample", "smote"):
        if strategy == "none":
            # Table 1's own XGB run: same estimator, folds and seed.
            cv = pipeline_result.app_evaluation.results["XGB"]
        else:
            cv = cross_validate(
                APP_ALGORITHMS(0)["XGB"],
                dataset.X,
                dataset.y,
                n_splits=10,
                resample=strategy,
                random_state=0,
            )
        rows.append((strategy, cv.precision, cv.recall, cv.f1, cv.auc, cv.false_positive_rate))
        metrics[strategy] = cv.f1
    report = ExperimentReport(
        "table1_balanced", "Table 1 balanced-dataset variants (XGB)",
        lines=[render_table(["sampling", "precision", "recall", "F1", "AUC", "FPR"], rows)],
        metrics=metrics,
    )
    emit(report)
    assert metrics["oversample"] >= 0.93  # paper: 99.22%
    assert metrics["undersample"] >= 0.90  # paper: 98.76%
