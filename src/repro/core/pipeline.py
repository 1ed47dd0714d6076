"""End-to-end detection pipeline: observations → labels → classifiers.

Ties §7 and §8 together the way the paper does: the app classifier is
trained on the labeled held-out devices, then scores every installed app
on every device to produce the *app suspiciousness* feature, which feeds
the device classifier.  Figure 15's organic/promotion-dedicated split
falls out of the per-device scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..playstore.catalog import Catalog
from ..simulation.world import StudyData
from .app_classifier import AppClassifier, AppClassifierEvaluation, evaluate_app_algorithms
from .app_features import app_feature_matrix
from .datasets import AppDataset, DeviceDataset, build_app_dataset, build_device_dataset
from .device_classifier import (
    DeviceClassifier,
    DeviceClassifierEvaluation,
    evaluate_device_algorithms,
)
from .device_features import device_feature_matrix
from .observations import DeviceObservation, build_observations

__all__ = ["DeviceVerdict", "PipelineResult", "DetectionPipeline", "scored_packages"]


def scored_packages(obs: DeviceObservation, catalog: Catalog) -> list[str]:
    """The apps the app classifier scores on one device: Play-hosted user
    installs only.  Promotion happens on the Play Store, and side-loaded
    apks have no Play reviews for the usage features to reason about."""
    return [
        a["package"]
        for a in obs.initial_apps
        if not a["preinstalled"]
        and a["package"] in catalog
        and catalog.get(a["package"]).on_play_store
    ]


@dataclass(frozen=True)
class DeviceVerdict:
    """Per-device pipeline output (Figure 15 plots these for workers)."""

    install_id: str
    predicted_worker: bool
    worker_probability: float
    app_suspiciousness: float
    n_apps_scored: int
    n_installed_and_reviewed: int
    ground_truth_worker: bool

    @property
    def organic_indicative(self) -> bool:
        """§8.2: at least one installed app predicted as personal use."""
        return self.app_suspiciousness < 1.0


@dataclass
class PipelineResult:
    """Everything the pipeline produced in one run."""

    observations: list[DeviceObservation]
    app_dataset: AppDataset
    app_evaluation: AppClassifierEvaluation
    app_model: AppClassifier
    suspiciousness: dict[str, float]
    device_dataset: DeviceDataset
    device_evaluation: DeviceClassifierEvaluation
    device_model: DeviceClassifier
    verdicts: list[DeviceVerdict] = field(default_factory=list)

    def worker_verdicts(self) -> list[DeviceVerdict]:
        return [v for v in self.verdicts if v.ground_truth_worker]

    def organic_split(self) -> tuple[int, int]:
        """(organic-indicative, promotion-only) worker-device counts —
        the Figure 15 partition."""
        workers = self.worker_verdicts()
        organic = sum(1 for v in workers if v.organic_indicative)
        return organic, len(workers) - organic


class DetectionPipeline:
    """End-to-end run of the paper's detection system.

    The labeling (§7.2) and the CV protocols (§7.2, §8.2) are the
    paper's and live with the code that applies them: ``label_apps``,
    :func:`evaluate_app_algorithms` and :func:`evaluate_device_algorithms`.
    Only the fold count (clamped to each minority class) and the worker
    count are chosen per run.
    """

    def __init__(self, n_splits: int = 10, n_jobs: int | None = None) -> None:
        self.n_splits = n_splits
        self.n_jobs = n_jobs

    def run(self, data: StudyData) -> PipelineResult:
        with obs.trace("pipeline"):
            return self._run_traced(data)

    def _run_traced(self, data: StudyData) -> PipelineResult:
        with obs.trace("pipeline.observations"):
            observations = build_observations(data, data.eligible_participants(min_days=2))

        # §7: app classifier on the labeled held-out devices.  Fold count
        # is clamped to the minority-class size so tiny (e.g. evasion-
        # scenario) cohorts still cross-validate.
        with obs.trace("pipeline.app_dataset"):
            app_dataset = build_app_dataset(data, observations)
        app_splits = max(
            2, min(self.n_splits, app_dataset.n_suspicious, app_dataset.n_regular)
        )
        with obs.trace("pipeline.app_eval"):
            app_evaluation = evaluate_app_algorithms(
                app_dataset, n_splits=app_splits, n_jobs=self.n_jobs
            )
            app_model = AppClassifier().fit(app_dataset)

        # Score every device's installed apps -> suspiciousness feature.
        with obs.trace("pipeline.score_devices"):
            suspiciousness = self.score_devices(data, observations, app_model)

        # §8: device classifier with the suspiciousness feature wired in.
        with obs.trace("pipeline.device_dataset"):
            device_dataset = build_device_dataset(data, observations, suspiciousness)
        device_splits = max(
            2, min(self.n_splits, device_dataset.n_worker, device_dataset.n_regular)
        )
        with obs.trace("pipeline.device_eval"):
            device_evaluation = evaluate_device_algorithms(
                device_dataset, n_splits=device_splits, n_jobs=self.n_jobs
            )
            device_model = DeviceClassifier().fit(device_dataset)

        result = PipelineResult(
            observations=observations,
            app_dataset=app_dataset,
            app_evaluation=app_evaluation,
            app_model=app_model,
            suspiciousness=suspiciousness,
            device_dataset=device_dataset,
            device_evaluation=device_evaluation,
            device_model=device_model,
        )
        with obs.trace("pipeline.verdicts"):
            result.verdicts = self._verdicts(
                data, observations, device_model, suspiciousness
            )
        return result

    @staticmethod
    def score_devices(
        data: StudyData,
        observations: list[DeviceObservation],
        app_model: AppClassifier,
    ) -> dict[str, float]:
        """install_id -> fraction of user-installed apps flagged as
        promotion-installed by the app classifier (§8.1 feature (2)).

        Every device's rows are scored in one ``predict`` call: the
        imputer and the trees treat each row on its own, so the flags are
        the ones a call per device gives.
        """
        matrices = []
        bounds = [0]
        for obs in observations:
            packages = scored_packages(obs, data.catalog)
            if packages:
                matrices.append(app_feature_matrix(obs, packages, data.catalog, data.vt_client))
            bounds.append(bounds[-1] + len(packages))
        flagged = app_model.predict(np.vstack(matrices)) == 1 if matrices else None
        suspiciousness: dict[str, float] = {}
        for obs, start, stop in zip(observations, bounds, bounds[1:]):
            suspiciousness[obs.install_id] = (
                float(np.mean(flagged[start:stop])) if stop > start else 0.0
            )
        return suspiciousness

    def _verdicts(
        self,
        data: StudyData,
        observations: list[DeviceObservation],
        device_model: DeviceClassifier,
        suspiciousness: dict[str, float],
    ) -> list[DeviceVerdict]:
        verdicts = []
        scores = [suspiciousness.get(o.install_id, 0.0) for o in observations]
        # One call for every device: each row's probability depends on
        # that row alone.
        proba = device_model.predict_proba(device_feature_matrix(observations, scores))
        worker_col = int(np.nonzero(device_model._model.classes_ == 1)[0][0])
        for obs, score, row in zip(observations, scores, proba):
            p_worker = float(row[worker_col])
            verdicts.append(
                DeviceVerdict(
                    install_id=obs.install_id,
                    predicted_worker=p_worker >= 0.5,
                    worker_probability=p_worker,
                    app_suspiciousness=score,
                    n_apps_scored=obs.n_user_installed,
                    n_installed_and_reviewed=obs.n_installed_and_reviewed,
                    ground_truth_worker=obs.is_worker,
                )
            )
        return verdicts
