"""Dataset assembly for the app (§7.2) and device (§8.2) classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ml.preprocessing import SimpleImputer
from ..simulation.calibration import APP_CLASSIFIER
from ..simulation.world import StudyData
from .app_features import APP_FEATURE_NAMES, app_feature_matrix
from .device_features import DEVICE_FEATURE_NAMES, device_feature_matrix
from .labeling import LabelingResult, label_apps
from .observations import DeviceObservation

__all__ = [
    "AppInstance",
    "AppDataset",
    "DeviceDataset",
    "build_app_dataset",
    "build_device_dataset",
]


@dataclass(frozen=True)
class AppInstance:
    """Provenance of one row of the app-usage dataset."""

    package: str
    install_id: str
    is_worker_device: bool
    label: int  # 1 = promotion usage, 0 = personal usage


@dataclass
class AppDataset:
    """The §7.2 train-and-validate app-usage dataset."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    instances: list[AppInstance]
    labeling: LabelingResult

    @property
    def n_suspicious(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_regular(self) -> int:
        return int(np.sum(self.y == 0))


@dataclass
class DeviceDataset:
    """The §8.2 device-usage dataset."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    observations: list[DeviceObservation]

    @property
    def n_worker(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_regular(self) -> int:
        return int(np.sum(self.y == 0))


def build_app_dataset(
    data: StudyData,
    observations: list[DeviceObservation],
    min_worker_devices: int = APP_CLASSIFIER.MIN_WORKER_DEVICES_FOR_SUSPICIOUS,
) -> AppDataset:
    """Label apps via §7.2 rules (``min_worker_devices`` as in
    :func:`label_apps`), then extract one instance per (labeled app,
    held-out device carrying it); each device's rows come from one
    :func:`app_feature_matrix` pass, and missing features are imputed
    with their column median."""
    labeling = label_apps(data, observations, min_worker_devices=min_worker_devices)

    rows: list[np.ndarray] = []
    labels: list[int] = []
    instances: list[AppInstance] = []
    for obs, label_set, label in (
        *((o, labeling.suspicious_apps, 1) for o in labeling.holdout_worker),
        *((o, labeling.regular_apps, 0) for o in labeling.holdout_regular),
    ):
        packages = sorted(obs.observed_packages & label_set)
        if not packages:
            continue
        rows.append(app_feature_matrix(obs, packages, data.catalog, data.vt_client))
        for package in packages:
            labels.append(label)
            instances.append(
                AppInstance(
                    package=package,
                    install_id=obs.install_id,
                    is_worker_device=obs.is_worker,
                    label=label,
                )
            )

    if not rows:
        raise ValueError(
            "labeling produced no instances — cohort too small or labeling "
            "thresholds too strict for this simulation scale"
        )
    return AppDataset(
        X=SimpleImputer().fit_transform(np.vstack(rows)),
        y=np.asarray(labels, dtype=np.int64),
        feature_names=APP_FEATURE_NAMES,
        instances=instances,
        labeling=labeling,
    )


def build_device_dataset(
    observations: list[DeviceObservation],
    suspiciousness: dict[str, float] | None = None,
) -> DeviceDataset:
    """One row per eligible device; label 1 = worker-controlled.

    ``suspiciousness`` maps install_id -> fraction of installed apps the
    app classifier flagged (feature (2) of §8.1); omitted entries are NaN
    until the column median imputes them, as it imputes every missing
    feature.
    """
    suspiciousness = suspiciousness or {}
    X = device_feature_matrix(
        observations, [suspiciousness.get(obs.install_id) for obs in observations]
    )
    return DeviceDataset(
        X=SimpleImputer().fit_transform(X),
        y=np.asarray([int(o.is_worker) for o in observations], dtype=np.int64),
        feature_names=DEVICE_FEATURE_NAMES,
        observations=observations,
    )
