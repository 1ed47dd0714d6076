"""Ablation: prior-work baselines vs RacketStore (§1, §10).

Burst and lockstep detectors only see the public review stream; the
paper's claim is that organic workers evade them while RacketStore's
device-telemetry features do not.  This bench measures device-level
recall by worker kind for both baselines and the pipeline.
"""

from repro.core.baselines import (
    BurstDetector,
    LockstepDetector,
    evaluate_baseline_on_devices,
)
from repro.experiments.common import ExperimentReport
from repro.reporting import render_table


def test_ablation_baselines(workbench, pipeline_result, emit):
    store = workbench.data.review_store
    observations = pipeline_result.observations

    burst = evaluate_baseline_on_devices(
        BurstDetector(window_days=3.0, min_burst_reviews=5), store, observations
    )
    lockstep = evaluate_baseline_on_devices(
        LockstepDetector(min_common_apps=4, time_window_days=7.0, min_group_size=3),
        store,
        observations,
    )

    # RacketStore pipeline recall, split the same way.
    verdict_by_id = {v.install_id: v for v in pipeline_result.verdicts}
    detected = {"organic_worker": 0, "dedicated_worker": 0, "regular": 0}
    totals = {"organic_worker": 0, "dedicated_worker": 0, "regular": 0}
    for obs in observations:
        kind = obs.participant.persona.kind
        totals[kind] += 1
        detected[kind] += int(verdict_by_id[obs.install_id].predicted_worker)
    racket = {
        "recall_organic": detected["organic_worker"] / max(totals["organic_worker"], 1),
        "recall_dedicated": detected["dedicated_worker"] / max(totals["dedicated_worker"], 1),
        "fpr_regular": detected["regular"] / max(totals["regular"], 1),
    }

    rows = [
        ("review bursts", burst["recall_organic"], burst["recall_dedicated"], burst["fpr_regular"]),
        ("lockstep co-review", lockstep["recall_organic"], lockstep["recall_dedicated"], lockstep["fpr_regular"]),
        ("RacketStore pipeline", racket["recall_organic"], racket["recall_dedicated"], racket["fpr_regular"]),
    ]
    report = ExperimentReport(
        "ablation_baselines",
        "Prior-work baselines vs RacketStore on organic/dedicated workers",
        lines=[
            render_table(
                ["detector", "organic recall", "dedicated recall", "regular FPR"], rows
            ),
            "Paper §1: organic workers 'successfully evade state-of-the-art "
            "detection methods' based on lockstep/burst signals.",
        ],
        metrics={
            "burst_organic": burst["recall_organic"],
            "burst_dedicated": burst["recall_dedicated"],
            "lockstep_organic": lockstep["recall_organic"],
            "racket_organic": racket["recall_organic"],
            "racket_dedicated": racket["recall_dedicated"],
        },
    )
    emit(report)
    # RacketStore must beat both baselines on organic workers — that is
    # the paper's reason to exist.
    assert report.metrics["racket_organic"] > report.metrics["burst_organic"]
    assert report.metrics["racket_organic"] > report.metrics["lockstep_organic"]
    assert report.metrics["racket_organic"] >= 0.85
