"""Per-table/figure experiment runners and the shared workbench."""

from .common import ExperimentReport, Workbench, shared_workbench
from .findings import FINDINGS, Finding, FindingResult, check_findings
from .registry import EXPERIMENTS, run_experiment, run_many
from .report_writer import generate_experiments_md

__all__ = [
    "ExperimentReport",
    "FINDINGS",
    "Finding",
    "FindingResult",
    "check_findings",
    "Workbench",
    "shared_workbench",
    "EXPERIMENTS",
    "run_experiment",
    "run_many",
    "generate_experiments_md",
]
