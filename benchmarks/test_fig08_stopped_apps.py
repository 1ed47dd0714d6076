"""Bench: Figure 8 stopped-apps boxplot."""

from repro.experiments import run_experiment


def test_fig08_stopped_apps(workbench, emit):
    report = emit(run_experiment("fig08", workbench))
    assert report.metrics["worker_median"] > report.metrics["regular_median"]
    assert report.metrics["significant"] == 1.0
