"""Bench: the full §6-§8 findings scorecard on the paper-scale cohort."""

from repro.experiments.common import ExperimentReport
from repro.experiments.findings import check_findings
from repro.reporting import render_table


def test_findings_scorecard(workbench, pipeline_result, emit):
    results = check_findings(workbench)
    holding = sum(r.holds for r in results)
    report = ExperimentReport(
        "findings",
        "Paper findings scorecard (§6-§8 qualitative claims)",
        lines=[
            render_table(["id", "section", "status", "measured"], [r.row() for r in results]),
            f"{holding}/{len(results)} findings hold",
        ],
        metrics={"holding": float(holding), "total": float(len(results))},
    )
    emit(report)
    # On the calibrated default cohort every finding must hold.
    assert holding == len(results)
