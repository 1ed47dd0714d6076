"""Bench: Figure 6 installed vs installed-and-reviewed vs total reviews."""

from repro.experiments import run_experiment


def test_fig06_installed_reviewed(workbench, emit):
    report = emit(run_experiment("fig06", workbench))
    # The paper's "dramatic difference": workers review ~58x more of
    # their installed apps (40.51 vs 0.7).
    assert report.metrics["worker_reviewed_mean"] >= 15 * max(
        report.metrics["regular_reviewed_mean"], 0.1
    )
    # Installed-app counts stay in the same ballpark (65 vs 78).
    ratio = report.metrics["worker_installed_mean"] / report.metrics["regular_installed_mean"]
    assert 0.8 <= ratio <= 1.6
    assert report.metrics["reviews_significant"] == 1.0
