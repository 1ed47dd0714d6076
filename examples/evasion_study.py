#!/usr/bin/env python3
"""Evasion-cost study (§9 "Worker Strategy Evolution").

The paper argues the engagement features impose a detectability /
profit tradeoff: to evade, workers must wait longer before reviewing,
register fewer accounts, and post fewer reviews — all of which cut the
fraud they can deliver.  This example sweeps the review delay and the
review volume and measures (a) device-classifier recall against the
evading workers and (b) the review volume those workers still deliver.

Run:  python examples/evasion_study.py
"""

import sys

from repro.core import DetectionPipeline
from repro.reporting import render_table
from repro.simulation import SimulationConfig, run_study


def run_with_evasion(delay_mult: float, volume_mult: float) -> tuple[float, float]:
    """Returns (worker recall, mean reviews delivered per worker device)."""
    config = SimulationConfig.small().scaled(
        worker_review_delay_multiplier=delay_mult,
        worker_review_volume_multiplier=volume_mult,
    )
    data = run_study(config)
    result = DetectionPipeline(n_splits=5).run(data)
    workers = result.worker_verdicts()
    recall = sum(1 for v in workers if v.predicted_worker) / max(len(workers), 1)

    observations = [o for o in result.observations if o.is_worker]
    mean_reviews = sum(o.total_account_reviews for o in observations) / max(
        len(observations), 1
    )
    return recall, mean_reviews


def main() -> int:
    print("Sweeping worker evasion strategies (delay x, volume x) ...\n")
    rows = []
    scenarios = [
        ("no evasion", 1.0, 1.0),
        ("2x slower reviews", 2.0, 1.0),
        ("4x slower reviews", 4.0, 1.0),
        ("half review volume", 1.0, 0.5),
        ("slow + half volume", 3.0, 0.5),
        ("deep evasion (5x slow, 25% vol)", 5.0, 0.25),
    ]
    for label, delay, volume in scenarios:
        recall, reviews = run_with_evasion(delay, volume)
        rows.append((label, delay, volume, f"{recall:.1%}", f"{reviews:.0f}"))
        print(f"  {label}: recall={recall:.1%}, reviews/device={reviews:.0f}")

    print()
    print(
        render_table(
            ["strategy", "delay x", "volume x", "worker recall", "reviews/device"],
            rows,
        )
    )
    print(
        "\nExpected tradeoff: evasion lowers detection recall only by also "
        "cutting the fraud volume delivered (reviews/device), i.e. worker "
        "profit — the §9 argument."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
