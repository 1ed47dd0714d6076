"""Bench: Figure 9 app churn (daily installs vs uninstalls)."""

from repro.experiments import run_experiment


def test_fig09_churn(workbench, emit):
    report = emit(run_experiment("fig09", workbench))
    # Workers install ~4x more apps per day (paper: 15.94 vs 3.88).
    assert report.metrics["worker_installs_mean"] >= 2 * report.metrics["regular_installs_mean"]
    assert report.metrics["installs_significant"] == 1.0
    assert report.metrics["uninstalls_significant"] == 1.0
