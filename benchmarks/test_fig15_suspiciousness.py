"""Bench: Figure 15 — app suspiciousness vs reviewed apps; the organic /
promotion-only worker-device split."""

import numpy as np

from repro.experiments import run_experiment


def test_fig15_suspiciousness(workbench, emit):
    report = emit(run_experiment("fig15", workbench))
    total = report.metrics["organic"] + report.metrics["dedicated"]
    # Paper: 123/178 = 69.1% organic-indicative, 55 promotion-only.
    assert 0.5 <= report.metrics["organic_fraction"] <= 0.9
    assert report.metrics["dedicated"] >= 0.1 * total
    # Even low-suspiciousness (novice) workers get detected.
    assert report.metrics["workers_detected_fraction"] >= 0.9
