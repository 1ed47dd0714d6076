"""Bench: Figure 11 permissions of cohort-exclusive apps."""

from repro.experiments import run_experiment


def test_fig11_permissions(workbench, emit):
    report = emit(run_experiment("fig11", workbench))
    # Similar typical profiles; worker-exclusive apps own the extreme
    # dangerous-permission tail.
    assert report.metrics["worker_dangerous_max"] >= report.metrics["regular_dangerous_max"]
    assert report.metrics["worker_dangerous_mean"] <= report.metrics["regular_dangerous_mean"] * 4
