"""Bench: §4-§5 dataset overview (recruitment funnel, Appendix-A coalescing)."""

from repro.experiments import run_experiment


def test_fig00_dataset_overview(workbench, emit):
    report = run_experiment("fig00", workbench)
    emit(report)
    # Coalescing must fold the repeat installs back into unique devices.
    assert report.metrics["installs"] > report.metrics["unique_devices"]
    assert report.metrics["snapshots"] > 100_000
