"""Ablation: evasion cost (§9 "Worker Strategy Evolution").

Workers who slow their reviews and cut their volume to evade detection
also cut the fraud they deliver.  Runs small evasion worlds and traces
the detection-recall vs fraud-throughput frontier.
"""

from repro.core import DetectionPipeline
from repro.experiments.common import ExperimentReport
from repro.reporting import render_table
from repro.simulation import SimulationConfig, run_study


def _run(delay_mult: float, volume_mult: float) -> tuple[float, float]:
    config = SimulationConfig.small().scaled(
        worker_review_delay_multiplier=delay_mult,
        worker_review_volume_multiplier=volume_mult,
    )
    data = run_study(config)
    result = DetectionPipeline(n_splits=5).run(data)
    workers = result.worker_verdicts()
    recall = sum(1 for v in workers if v.predicted_worker) / max(len(workers), 1)
    worker_obs = [o for o in result.observations if o.is_worker]
    reviews = sum(o.total_account_reviews for o in worker_obs) / max(len(worker_obs), 1)
    return recall, reviews


def test_ablation_evasion_cost(emit):
    scenarios = [
        ("baseline", 1.0, 1.0),
        ("3x slower reviews", 3.0, 1.0),
        ("slow + 25% volume", 4.0, 0.25),
    ]
    rows = []
    metrics = {}
    for label, delay, volume in scenarios:
        recall, reviews = _run(delay, volume)
        rows.append((label, delay, volume, recall, reviews))
        metrics[f"recall[{label}]"] = recall
        metrics[f"reviews[{label}]"] = reviews

    emit(
        ExperimentReport(
            "ablation_evasion",
            "Evasion cost: detection recall vs fraud throughput (§9)",
            lines=[
                render_table(
                    ["strategy", "delay x", "volume x", "worker recall", "reviews/device"],
                    rows,
                )
            ],
            metrics=metrics,
        )
    )
    # The §9 tradeoff: deep evasion must slash delivered fraud.
    assert (
        metrics["reviews[slow + 25% volume]"] < 0.6 * metrics["reviews[baseline]"]
    )
    # And the detector holds up well at baseline behaviour.
    assert metrics["recall[baseline]"] >= 0.9
