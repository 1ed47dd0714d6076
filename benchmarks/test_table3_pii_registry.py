"""Bench: Table 3 — the PII governance registry."""

from repro.experiments import run_experiment


def test_table3_pii_registry(workbench, emit):
    report = emit(run_experiment("table3", workbench))
    assert report.metrics["registry_entries"] == 6
