"""Ablation: cross-cohort generalization.

§9 (Discussion): "the relatively small and biased data ... may lead to
reduced applicability to data from other ASO workers and regular
users."  This bench quantifies the concern inside the simulation: train
the full pipeline on one cohort, deploy the frozen models on an
independently seeded cohort, and measure the transfer gap.
"""

import numpy as np

from repro.core import DetectionPipeline, build_observations
from repro.core.device_features import device_feature_matrix
from repro.experiments.common import ExperimentReport
from repro.ml.metrics import classification_report
from repro.reporting import render_table
from repro.simulation import SimulationConfig, run_study


def test_ablation_cross_cohort(workbench, pipeline_result, emit):
    # Frozen models from the session's default cohort.
    app_model = pipeline_result.app_model
    device_model = pipeline_result.device_model

    # A fresh, independently seeded small cohort ("other workers").
    deploy_config = SimulationConfig.small().scaled(
        seed=SimulationConfig.small().seed + 77_777
    )
    deploy_data = run_study(deploy_config)
    observations = build_observations(
        deploy_data, deploy_data.eligible_participants(min_days=2)
    )

    suspiciousness = DetectionPipeline.score_devices(
        deploy_data, observations, app_model
    )
    X = device_feature_matrix(
        observations, [suspiciousness.get(obs.install_id, 0.0) for obs in observations]
    )
    y = np.array([int(obs.is_worker) for obs in observations])
    y_pred = device_model.predict(X)
    report_metrics = classification_report(y, y_pred)

    in_sample = pipeline_result.device_evaluation.results["XGB"]
    emit(
        ExperimentReport(
            "ablation_generalization",
            "Frozen pipeline deployed on an unseen cohort (§9 concern)",
            lines=[
                render_table(
                    ["evaluation", "precision", "recall", "F1"],
                    [
                        ("in-cohort CV", in_sample.precision, in_sample.recall, in_sample.f1),
                        ("cross-cohort deploy", report_metrics.precision,
                         report_metrics.recall, report_metrics.f1),
                    ],
                ),
                f"deploy cohort: {int(y.sum())} worker / {int((1 - y).sum())} "
                "regular devices, different seed, never seen in training",
            ],
            metrics={
                "deploy_f1": report_metrics.f1,
                "deploy_precision": report_metrics.precision,
                "in_sample_f1": in_sample.f1,
            },
        )
    )
    # The features are behavioural, not identity-bound: the frozen model
    # must transfer with only a modest gap.
    assert report_metrics.f1 >= 0.85
    assert report_metrics.precision >= 0.85
