"""Bench: Figure 4 snapshots/day vs active days."""

from repro.experiments import run_experiment


def test_fig04_engagement(workbench, emit):
    report = emit(run_experiment("fig04", workbench))
    # Paper: most devices report at least 100 snapshots per day.
    assert report.metrics["frac_over_100"] >= 0.9
    # Medians in the thousands, same order of magnitude as the paper.
    assert 500 <= report.metrics["worker_median"] <= 20_000
    assert 500 <= report.metrics["regular_median"] <= 20_000
