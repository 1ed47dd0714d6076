"""Bench: Table 2 — device classifier (XGB/RF/SVM/KNN/LVQ) with SMOTE,
plus the §8.2 sampling-strategy variants."""

from repro.core.device_classifier import DEVICE_ALGORITHMS
from repro.experiments import run_experiment
from repro.experiments.common import ExperimentReport
from repro.ml import cross_validate
from repro.reporting import render_table


def test_table2_device_classifier(workbench, emit):
    report = emit(run_experiment("table2", workbench))
    # Shape: XGB at (or within noise of) the top — the paper's XGB-RF
    # gap is only 0.3pp (95.29 vs 94.99) — precision prioritised, low
    # FPR, LVQ weakest with a recall deficit.
    best_f1 = max(v for k, v in report.metrics.items() if k.endswith("_f1"))
    assert report.metrics["XGB_f1"] >= best_f1 - 0.02
    assert report.metrics["XGB_f1"] >= 0.9
    assert report.metrics["xgb_fpr"] <= 0.1
    assert report.metrics["LVQ_f1"] == min(
        value for key, value in report.metrics.items() if key.endswith("_f1")
    )


def test_table2_sampling_variants(workbench, pipeline_result, emit):
    """§8.2: no-sampling vs SMOTE vs undersampling for XGB."""
    dataset = pipeline_result.device_dataset
    rows = []
    metrics = {}
    for strategy in ("none", "smote", "undersample"):
        if strategy == "smote":
            # Table 2's own XGB run: same estimator, folds and seed.
            cv = pipeline_result.device_evaluation.results["XGB"]
        else:
            cv = cross_validate(
                DEVICE_ALGORITHMS(0)["XGB"],
                dataset.X,
                dataset.y,
                n_splits=10,
                resample=None if strategy == "none" else strategy,
                random_state=0,
            )
        rows.append((strategy, cv.precision, cv.recall, cv.f1, cv.auc))
        metrics[strategy] = cv.f1
    report = ExperimentReport(
        "table2_sampling", "Table 2 sampling variants (XGB)",
        lines=[render_table(["sampling", "precision", "recall", "F1", "AUC"], rows)],
        metrics=metrics,
    )
    emit(report)
    # All strategies stay in the same F1 band (paper: 95.18-96.86%).
    assert min(metrics.values()) >= 0.88
