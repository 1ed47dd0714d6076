#!/usr/bin/env python3
"""Store-side deployment study: calibration + precision-first thresholds.

§8.2: "We prioritize precision, since a low precision would lead the app
market to take wrong actions against many regular devices."  A real
store deployment therefore (1) calibrates the detector's scores into
probabilities and (2) picks an operating threshold for a precision or
FPR budget on validation data — then applies that fixed threshold to
new devices.  This example runs that full flow across two independently
simulated cohorts (train/validate on one, deploy on the other).

Run:  python examples/store_deployment.py
"""

import sys

import numpy as np

from repro.core import DetectionPipeline, build_observations
from repro.core.device_features import device_feature_matrix
from repro.core.pipeline import DetectionPipeline as _Pipeline
from repro.core.thresholds import sweep_operating_points, threshold_for_fpr
from repro.ml.calibration import IsotonicCalibrator
from repro.reporting import render_table
from repro.simulation import SimulationConfig, run_study


def device_scores(result, data, observations) -> np.ndarray:
    suspiciousness = _Pipeline.score_devices(data, observations, result.app_model)
    X = device_feature_matrix(
        observations, [suspiciousness.get(obs.install_id, 0.0) for obs in observations]
    )
    return result.device_model.positive_probability(X)


def main() -> int:
    print("Training cohort ...")
    train_data = run_study(SimulationConfig.small())
    result = DetectionPipeline(n_splits=5).run(train_data)
    train_obs = result.observations
    y_train = np.array([int(o.is_worker) for o in train_obs])
    raw_scores = device_scores(result, train_data, train_obs)

    # Calibrate scores -> probabilities on the training cohort.
    calibrator = IsotonicCalibrator().fit(raw_scores, y_train)
    calibrated = calibrator.predict_proba(raw_scores)

    # Operating-point sweep + the paper-style FPR budget (1.41%).
    print("\nOperating points on validation data:")
    points = sweep_operating_points(y_train, calibrated)
    print(
        render_table(
            ["threshold", "precision", "recall", "FPR", "flagged"],
            [
                (p.threshold, p.precision, p.recall, p.false_positive_rate, p.flagged_fraction)
                for p in points
            ],
        )
    )
    chosen = threshold_for_fpr(y_train, calibrated, max_fpr=0.0141)
    print(
        f"chosen threshold {chosen.threshold:.3f}: precision={chosen.precision:.3f}, "
        f"recall={chosen.recall:.3f}, FPR={chosen.false_positive_rate:.4f} "
        "(budget: the paper's 1.41%)"
    )

    # Deploy on an unseen cohort (different seed).
    print("\nDeploying on a fresh cohort ...")
    deploy_config = SimulationConfig.small().scaled(seed=SimulationConfig.small().seed + 999)
    deploy_data = run_study(deploy_config)
    deploy_obs = build_observations(deploy_data, deploy_data.eligible_participants(2))
    deploy_scores = calibrator.predict_proba(
        device_scores(result, deploy_data, deploy_obs)
    )
    y_deploy = np.array([int(o.is_worker) for o in deploy_obs])
    flagged = deploy_scores >= chosen.threshold
    tp = int(np.sum(flagged & (y_deploy == 1)))
    fp = int(np.sum(flagged & (y_deploy == 0)))
    fn = int(np.sum(~flagged & (y_deploy == 1)))
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    print(
        f"deployment: {int(flagged.sum())}/{len(deploy_obs)} devices flagged, "
        f"precision={precision:.3f}, recall={recall:.3f}"
    )
    print(
        "\nThe fixed, validation-chosen threshold transfers to an unseen "
        "cohort — the §9 deployment story."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
