"""Bench: Figure 7 install-to-review delay distributions."""

from repro.experiments import run_experiment


def test_fig07_install_to_review(workbench, emit):
    report = emit(run_experiment("fig07", workbench))
    # Workers post far more install-time-joined reviews and much sooner.
    assert report.metrics["worker_n"] > 100 * report.metrics["regular_n"]
    assert report.metrics["worker_median"] < report.metrics["regular_median"]
    # ~1/3 of worker reviews land within a day (paper: 13,376/40,397).
    assert 0.2 <= report.metrics["worker_fast_fraction"] <= 0.55
    assert report.metrics["significant"] == 1.0
