"""Bench: Figure 5 registered accounts (Gmail / types / non-Gmail)."""

from repro.experiments import run_experiment
from repro.simulation.calibration import ACCOUNTS


def test_fig05_accounts(workbench, emit):
    report = emit(run_experiment("fig05", workbench))
    # Shape: worker Gmail median within 50% of the paper's 21; regular
    # median at the paper's 2; contrast significant.
    assert report.metrics["worker_gmail_median"] >= ACCOUNTS.WORKER_GMAIL_MEDIAN * 0.5
    assert report.metrics["regular_gmail_median"] <= 4
    assert report.metrics["gmail_significant"] == 1.0
