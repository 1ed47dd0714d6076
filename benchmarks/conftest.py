"""Benchmark fixtures: one paper-calibrated study + pipeline per session.

Every bench regenerates one table/figure of the paper and prints a
paper-vs-measured report past pytest's output capture, so that
`pytest benchmarks -q | tee ...` records every report.
"""

from __future__ import annotations

import pytest

from repro.core import DetectionPipeline
from repro.experiments import ExperimentReport, Workbench
from repro.simulation import SimulationConfig


@pytest.fixture(scope="session")
def workbench() -> Workbench:
    """The paper-calibrated cohort: 178 worker + 88 regular devices."""
    return Workbench(SimulationConfig(), DetectionPipeline(n_splits=10))


@pytest.fixture(scope="session")
def observations(workbench):
    return workbench.observations


@pytest.fixture(scope="session")
def pipeline_result(workbench):
    """Warm the (expensive) pipeline cache once for all classifier benches."""
    return workbench.pipeline_result


@pytest.fixture
def emit(capsys):
    """Print a report to the real stdout."""

    def _emit(report: ExperimentReport) -> ExperimentReport:
        # pytest captures file descriptor 1 while a test runs;
        # capsys.disabled() lets the report through to the terminal.
        with capsys.disabled():
            print("\n" + report.render(), flush=True)
        return report

    return _emit
