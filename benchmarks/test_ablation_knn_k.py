"""Ablation: the KNN K sweep (both tables note "KNN achieved best
performance for K = 5")."""

from repro.experiments.common import ExperimentReport
from repro.ml import KNeighborsClassifier
from repro.ml.tuning import grid_search
from repro.reporting import render_table


def test_ablation_knn_k(workbench, pipeline_result, emit):
    dataset = pipeline_result.device_dataset
    grid = {"n_neighbors": [1, 3, 5, 9, 15, 25]}
    result = grid_search(
        KNeighborsClassifier(),
        grid,
        dataset.X,
        dataset.y,
        n_splits=10,
        resample="smote",
        random_state=0,
    )
    rows = [(params["n_neighbors"], cv.f1, cv.auc) for params, cv in sorted(
        result.entries, key=lambda e: e[0]["n_neighbors"]
    )]
    report = ExperimentReport(
        "ablation_knn_k",
        "KNN K sweep on the device classifier (paper: K=5 best)",
        lines=[render_table(["K", "F1", "AUC"], rows)],
        metrics={f"f1_k{params['n_neighbors']}": cv.f1 for params, cv in result.entries},
    )
    emit(report)
    best_k = result.best_params["n_neighbors"]
    # The paper found a small-but-not-1 K optimal; large K oversmooths
    # the minority regular class.
    assert best_k in (3, 5, 9)
    assert report.metrics["f1_k5"] >= report.metrics["f1_k25"]
