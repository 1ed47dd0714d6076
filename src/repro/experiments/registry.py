"""Registry mapping experiment ids to their runners.

One entry per table/figure the paper's evaluation reports (DESIGN.md §4
holds the full index).  ``run_experiment`` is the single entry point the
benchmark harness and examples call.
"""

from __future__ import annotations

from typing import Callable

from .. import obs
from .classifiers import (
    run_fig13_app_importance,
    run_fig14_device_importance,
    run_fig15_suspiciousness,
    run_table1_app_classifier,
    run_table2_device_classifier,
    run_table3_pii_registry,
)
from .common import ExperimentReport, Workbench, shared_workbench
from .measurements import (
    run_fig00_dataset_overview,
    run_fig01_timelines,
    run_fig04_engagement,
    run_fig05_accounts,
    run_fig06_installed_reviewed,
    run_fig07_install_to_review,
    run_fig08_stopped_apps,
    run_fig09_churn,
    run_fig10_daily_use,
    run_fig11_permissions,
    run_fig12_malware,
)

__all__ = ["EXPERIMENTS", "run_experiment", "run_many"]

EXPERIMENTS: dict[str, Callable[[Workbench], ExperimentReport]] = {
    "fig00": run_fig00_dataset_overview,
    "fig01": run_fig01_timelines,
    "fig04": run_fig04_engagement,
    "fig05": run_fig05_accounts,
    "fig06": run_fig06_installed_reviewed,
    "fig07": run_fig07_install_to_review,
    "fig08": run_fig08_stopped_apps,
    "fig09": run_fig09_churn,
    "fig10": run_fig10_daily_use,
    "fig11": run_fig11_permissions,
    "fig12": run_fig12_malware,
    "table1": run_table1_app_classifier,
    "fig13": run_fig13_app_importance,
    "table2": run_table2_device_classifier,
    "fig14": run_fig14_device_importance,
    "fig15": run_fig15_suspiciousness,
    "table3": run_table3_pii_registry,
}


def run_experiment(experiment_id: str, workbench: Workbench | None = None) -> ExperimentReport:
    """Run one experiment against a (shared by default) workbench."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    workbench = workbench or shared_workbench()
    duration = obs.histogram(
        "experiment_seconds",
        {"experiment": experiment_id},
        help="per-experiment wall time",
    )
    with obs.timer(duration), obs.trace(f"experiment.{experiment_id}"):
        report = EXPERIMENTS[experiment_id](workbench)
    return report


def run_many(
    experiment_ids: list[str] | tuple[str, ...],
    workbench: Workbench | None = None,
    n_jobs: int | None = None,
) -> list[ExperimentReport]:
    """Run several experiments in order against one workbench.

    Every report reads the same lazily built study and pipeline result,
    so they run in this process; parallelism lives inside the
    workbench, whose own ``n_jobs`` fans out the day engine's shards,
    CV folds and forest trees (DESIGN.md §8).  ``n_jobs`` is accepted
    and ignored: worker processes would each rebuild the pipeline
    result, fitting every CV fold once per worker.
    """
    unknown = [eid for eid in experiment_ids if eid not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown!r}; known: {sorted(EXPERIMENTS)}")
    workbench = workbench or shared_workbench()
    return [run_experiment(eid, workbench) for eid in experiment_ids]
