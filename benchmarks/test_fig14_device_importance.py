"""Bench: Figure 14 — top-10 device-feature Gini importances."""

from repro.experiments import run_experiment


def test_fig14_device_importance(workbench, emit):
    report = emit(run_experiment("fig14", workbench))
    # Paper's standout four: total apps reviewed, app suspiciousness,
    # stopped apps, reviews per account.  Require most of that family in
    # our top-6 (correlated aliases accepted).
    assert report.metrics["paper_top4_hits"] >= 3
