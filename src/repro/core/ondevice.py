"""Privacy-preserving on-device classification (§9).

The paper proposes shipping the pre-trained models inside a
pre-installed client (e.g. the Play Store app) so sensitive usage data
never leaves the device: features are computed locally and only a
boolean/aggregate *report* is emitted.  :class:`OnDeviceDetector`
implements that contract — its report type contains no account
identifiers, package names, or usage traces, and the raw feature
matrices are discarded after scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..playstore.catalog import Catalog
from ..virustotal.client import VirusTotalClient
from .app_features import app_feature_matrix
from .detector import Detector
from .device_features import device_feature_matrix
from .observations import DeviceObservation
from .pipeline import scored_packages

__all__ = ["OnDeviceReport", "OnDeviceDetector"]


@dataclass(frozen=True)
class OnDeviceReport:
    """The only thing that leaves the device.

    Deliberately excludes every raw observable: no package names, no
    account identifiers, no timestamps — just the aggregate verdict the
    app store needs for enforcement.
    """

    n_apps_scanned: int
    n_apps_flagged: int
    app_suspiciousness: float
    device_flagged: bool
    worker_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.app_suspiciousness <= 1.0:
            raise ValueError("suspiciousness must be a fraction")


class OnDeviceDetector:
    """Pre-trained models executing locally on one device's data."""

    def __init__(self, app_model: Detector, device_model: Detector) -> None:
        self._app_model = app_model
        self._device_model = device_model

    def scan(
        self,
        obs: DeviceObservation,
        catalog: Catalog,
        vt_client: VirusTotalClient | None = None,
    ) -> OnDeviceReport:
        """Compute features locally, score, and emit only the report."""
        packages = scored_packages(obs, catalog)
        if packages:
            X = app_feature_matrix(obs, packages, catalog, vt_client)
            flags = self._app_model.predict(X)
            n_flagged = int(np.sum(flags == 1))
            suspiciousness = n_flagged / len(packages)
        else:
            n_flagged = 0
            suspiciousness = 0.0

        x_device = device_feature_matrix([obs], [suspiciousness])
        p_worker = float(self._device_model.positive_probability(x_device)[0])

        return OnDeviceReport(
            n_apps_scanned=len(packages),
            n_apps_flagged=n_flagged,
            app_suspiciousness=suspiciousness,
            device_flagged=p_worker >= 0.5,
            worker_probability=p_worker,
        )
