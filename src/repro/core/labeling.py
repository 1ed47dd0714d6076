"""App labeling rules for the train-and-validate dataset (§7.2).

The paper holds out 20% of worker devices and 42% of regular devices and
labels apps by co-installation evidence:

* **suspicious** — advertised for promotion on the infiltrated Facebook
  groups (our campaign board), installed on at least five of the
  held-out worker devices, and not installed on any held-out regular
  device;
* **regular (non-suspicious)** — not installed on any worker device,
  installed on at least one held-out regular device, and carrying at
  least 15,000 Play reviews (popularity evidence).

Instances are (app, device) pairs over the held-out devices.  The
rules' numbers are :class:`~repro.simulation.calibration.APP_CLASSIFIER`'s;
only the co-install count is an argument, which the labelling ablation
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulation.calibration import APP_CLASSIFIER
from ..simulation.world import StudyData
from .observations import DeviceObservation

__all__ = ["LabelingResult", "split_holdout", "label_apps"]

#: Seed of the holdout draw.
HOLDOUT_SEED = 7


@dataclass
class LabelingResult:
    """Labeled app sets plus the device split that produced them."""

    suspicious_apps: frozenset[str]
    regular_apps: frozenset[str]
    holdout_worker: list[DeviceObservation]
    holdout_regular: list[DeviceObservation]
    remaining: list[DeviceObservation]


def split_holdout(
    observations: list[DeviceObservation],
) -> tuple[list[DeviceObservation], list[DeviceObservation], list[DeviceObservation]]:
    """Randomly set aside the labeling devices (workers, regulars, rest)."""
    rng = np.random.default_rng(HOLDOUT_SEED)
    workers = [o for o in observations if o.is_worker]
    regulars = [o for o in observations if not o.is_worker]
    n_w = max(1, int(round(APP_CLASSIFIER.WORKER_HOLDOUT_FRACTION * len(workers))))
    n_r = max(1, int(round(APP_CLASSIFIER.REGULAR_HOLDOUT_FRACTION * len(regulars))))
    worker_idx = set(rng.choice(len(workers), size=min(n_w, len(workers)), replace=False).tolist())
    regular_idx = set(rng.choice(len(regulars), size=min(n_r, len(regulars)), replace=False).tolist())
    holdout_w = [o for i, o in enumerate(workers) if i in worker_idx]
    holdout_r = [o for i, o in enumerate(regulars) if i in regular_idx]
    remaining = [o for i, o in enumerate(workers) if i not in worker_idx] + [
        o for i, o in enumerate(regulars) if i not in regular_idx
    ]
    return holdout_w, holdout_r, remaining


def label_apps(
    data: StudyData,
    observations: list[DeviceObservation],
    min_worker_devices: int = APP_CLASSIFIER.MIN_WORKER_DEVICES_FOR_SUSPICIOUS,
) -> LabelingResult:
    """Apply the §7.2 rules over the held-out devices; an app is
    suspicious on at least ``min_worker_devices`` held-out worker
    devices."""
    holdout_w, holdout_r, remaining = split_holdout(observations)

    advertised = data.board.advertised_packages()
    all_worker_packages: set[str] = set()
    for obs in (o for o in observations if o.is_worker):
        all_worker_packages.update(obs.observed_packages)
    holdout_regular_packages: set[str] = set()
    for obs in holdout_r:
        holdout_regular_packages.update(obs.observed_packages)

    # Suspicious: advertised + co-installed on >= N held-out worker
    # devices + absent from held-out regular devices.
    worker_install_counts: dict[str, int] = {}
    for obs in holdout_w:
        for package in obs.observed_packages:
            worker_install_counts[package] = worker_install_counts.get(package, 0) + 1
    suspicious = frozenset(
        package
        for package, count in worker_install_counts.items()
        if package in advertised
        and count >= min_worker_devices
        and package not in holdout_regular_packages
    )

    # Regular: on a held-out regular device, never on a worker device,
    # and popular on the Play Store.
    regular: set[str] = set()
    for obs in holdout_r:
        for package in obs.observed_packages:
            if package in all_worker_packages:
                continue
            if package not in data.catalog:
                continue
            app = data.catalog.get(package)
            if app.preinstalled:
                continue
            if app.review_count >= APP_CLASSIFIER.MIN_REVIEWS_FOR_REGULAR:
                regular.add(package)

    return LabelingResult(
        suspicious_apps=suspicious,
        regular_apps=frozenset(regular),
        holdout_worker=holdout_w,
        holdout_regular=holdout_r,
        remaining=remaining,
    )
