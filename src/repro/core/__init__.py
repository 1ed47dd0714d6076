"""The paper's primary contribution: app/device usage features (§7.1,
§8.1), the §7.2 labeling rules, the app and device classifiers and the
deployable detector they share, the end-to-end detection pipeline, and
the §9 privacy-preserving on-device detector."""

from .app_classifier import APP_ALGORITHMS, evaluate_app_algorithms
from .app_features import (
    APP_FEATURE_NAMES,
    NEVER_REVIEWED_SENTINEL_DAYS,
    app_feature_matrix,
)
from .baselines import (
    BaselineVerdict,
    BurstDetector,
    LockstepDetector,
    evaluate_baseline_on_devices,
)
from .datasets import (
    AppDataset,
    AppInstance,
    DeviceDataset,
    build_app_dataset,
    build_device_dataset,
)
from .detector import Detector, SuiteEvaluation
from .device_classifier import DEVICE_ALGORITHMS, evaluate_device_algorithms
from .device_features import DEVICE_FEATURE_NAMES, device_feature_matrix
from .labeling import LabelingResult, label_apps, split_holdout
from .model_io import export_detector, import_detector
from .observations import DeviceObservation, build_observations
from .thresholds import (
    OperatingPoint,
    sweep_operating_points,
    threshold_for_fpr,
)
from .ondevice import OnDeviceDetector, OnDeviceReport
from .pipeline import DetectionPipeline, DeviceVerdict, PipelineResult

__all__ = [
    "APP_ALGORITHMS",
    "evaluate_app_algorithms",
    "APP_FEATURE_NAMES",
    "NEVER_REVIEWED_SENTINEL_DAYS",
    "BaselineVerdict",
    "BurstDetector",
    "LockstepDetector",
    "evaluate_baseline_on_devices",
    "export_detector",
    "import_detector",
    "app_feature_matrix",
    "AppDataset",
    "AppInstance",
    "DeviceDataset",
    "build_app_dataset",
    "build_device_dataset",
    "Detector",
    "SuiteEvaluation",
    "DEVICE_ALGORITHMS",
    "evaluate_device_algorithms",
    "DEVICE_FEATURE_NAMES",
    "device_feature_matrix",
    "LabelingResult",
    "label_apps",
    "split_holdout",
    "DeviceObservation",
    "OperatingPoint",
    "sweep_operating_points",
    "threshold_for_fpr",
    "build_observations",
    "OnDeviceDetector",
    "OnDeviceReport",
    "DetectionPipeline",
    "DeviceVerdict",
    "PipelineResult",
]
