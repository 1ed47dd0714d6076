"""Bench: Figure 10 apps used/day vs installed (the overlap finding)."""

from repro.experiments import run_experiment


def test_fig10_daily_use(workbench, emit):
    report = emit(run_experiment("fig10", workbench))
    # The paper's point is *overlap*: daily used-app counts cannot
    # separate the cohorts on their own.
    assert report.metrics["overlap_fraction"] >= 0.15
    ratio = report.metrics["worker_mean"] / report.metrics["regular_mean"]
    assert 0.4 <= ratio <= 2.0
