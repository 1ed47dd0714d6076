"""Bench: Figure 1 per-app interaction timelines."""

from repro.experiments import run_experiment


def test_fig01_timelines(workbench, emit):
    report = emit(run_experiment("fig01", workbench))
    assert report.metrics["worker_timelines"] == 2
    assert report.metrics["regular_timelines"] == 1
