"""App usage features (§7.1): one vector per (app, device) instance.

The eleven feature groups from the paper, in order:

1.  accounts on the device that reviewed the app before / while / after
    RacketStore was installed;
2.  install-to-review time statistics;
3.  inter-review time statistics (gaps between consecutive reviews for
    the app from device accounts);
4.  whether the app was opened on multiple days;
5.  snapshots per day with the app on screen;
6.  snapshots collected per day from the device;
7.  inner retention — how long the app stayed installed during the
    study, and whether it spanned the whole observation window;
8.  normal / dangerous permissions requested;
9.  permissions granted / denied by the user;
10. VirusTotal flag count for the app's apk hash;
11. install and uninstall events during the study.

Review-timing features for apps the device's accounts never reviewed
use the ``NEVER_REVIEWED_SENTINEL_DAYS`` sentinel: a missing review is
semantically an install-to-review wait longer than the observation
horizon, not a missing value — this is what lets the classifier treat
"installed but never reviewed" as the personal-use signature (Fig 13).
Other undefined features are NaN and are median-imputed downstream.
"""

from __future__ import annotations

import math

import numpy as np

from ..playstore.catalog import Catalog
from ..simulation.clock import SECONDS_PER_DAY
from ..virustotal.client import VirusTotalClient
from .observations import DeviceObservation

#: Stand-in wait (days) when no review from the device exists: far past
#: the longest wait the paper observed (606 days).
NEVER_REVIEWED_SENTINEL_DAYS = 999.0

__all__ = [
    "APP_FEATURE_NAMES",
    "NEVER_REVIEWED_SENTINEL_DAYS",
    "app_feature_matrix",
]

APP_FEATURE_NAMES: tuple[str, ...] = (
    "accounts_reviewed_before",      # (1)
    "accounts_reviewed_during",
    "accounts_reviewed_after",
    "accounts_reviewed_total",
    "install_to_review_mean_days",   # (2)
    "install_to_review_min_days",
    "inter_review_mean_days",        # (3)
    "inter_review_min_days",
    "opened_multiple_days",          # (4)
    "onscreen_snapshots_per_day",    # (5)
    "device_snapshots_per_day",      # (6)
    "inner_retention_days",          # (7)
    "spans_study_window",
    "n_normal_permissions",          # (8)
    "n_dangerous_permissions",
    "n_permissions_granted",         # (9)
    "n_permissions_denied",
    "vt_flags",                      # (10)
    "n_install_events",              # (11)
    "n_uninstall_events",
)


_COLUMN = {name: i for i, name in enumerate(APP_FEATURE_NAMES)}


def app_feature_matrix(
    obs: DeviceObservation,
    packages: list[str],
    catalog: Catalog,
    vt_client: VirusTotalClient | None = None,
) -> np.ndarray:
    """All of a device's (app, device) feature rows in one pass, one
    row per package in ``packages`` order, columns in
    :data:`APP_FEATURE_NAMES` order.

    Byte-identical to stacking the per-(app, device) scalar extractor
    in ``tests/oracles.py`` (the DESIGN.md §9 contract): every float is
    produced by the same IEEE operations on the same operands in the
    same order.  Per-device work is hoisted out of the per-row loop —
    the ``initial_apps`` permission scan and ``app_changes`` scans
    collapse into single-pass lookup tables, the review-gap statistics
    run on numpy slices, and retention windows, usage rates and event
    counts fill whole columns at once.
    """
    n = len(packages)
    M = np.empty((n, len(APP_FEATURE_NAMES)), dtype=np.float64)
    if n == 0:
        return M
    start, end = obs.installed_at, obs.uninstalled_at
    active_days = max(obs.active_days, 1)

    # -- single-pass lookup tables over the device's records ------------
    # Granted/denied permissions come from a package's first
    # initial_apps entry, else from its *last* install event.
    initial_perm: dict[str, tuple[int, int]] = {}
    for app_info in obs.initial_apps:
        initial_perm.setdefault(
            app_info["package"], (app_info["n_granted"], app_info["n_denied"])
        )
    install_perm: dict[str, tuple[int, int]] = {}
    last_uninstall: dict[str, float] = {}
    for event in obs.app_changes:
        if event["action"] == "install":
            install_perm[event["package"]] = (
                event.get("n_granted", 0),
                event.get("n_denied", 0),
            )
        elif event["action"] == "uninstall":
            last_uninstall[event["package"]] = event["timestamp"]

    install_times = obs.install_times
    apk_hashes = obs.apk_hashes
    foreground_days = obs.foreground_days
    foreground_snapshots = obs.foreground_snapshots
    install_counts = obs.install_event_counts
    uninstall_counts = obs.uninstall_event_counts

    # -- review timing groups (1)-(3): numpy slices per package ---------
    for j, package in enumerate(packages):
        reviews = obs.reviews_for_app(package)
        # device_reviews lists are (timestamp, review_id)-sorted, so the
        # timestamp column is already in time order.
        timestamps = np.fromiter(
            (r.timestamp for r in reviews), np.float64, len(reviews)
        )
        before: set[str] = set()
        during: set[str] = set()
        after: set[str] = set()
        for review in reviews:
            if review.timestamp < start:
                before.add(review.google_id)
            elif review.timestamp <= end:
                during.add(review.google_id)
            else:
                after.add(review.google_id)
        M[j, _COLUMN["accounts_reviewed_before"]] = float(len(before))
        M[j, _COLUMN["accounts_reviewed_during"]] = float(len(during))
        M[j, _COLUMN["accounts_reviewed_after"]] = float(len(after))
        M[j, _COLUMN["accounts_reviewed_total"]] = float(
            len(before | during | after)
        )

        install_time = install_times.get(package)
        if install_time is None:
            i2r = timestamps[:0]
        else:
            i2r = (timestamps[timestamps > install_time] - install_time) / SECONDS_PER_DAY
        M[j, _COLUMN["install_to_review_mean_days"]] = (
            float(np.mean(i2r)) if i2r.size else NEVER_REVIEWED_SENTINEL_DAYS
        )
        M[j, _COLUMN["install_to_review_min_days"]] = (
            float(np.min(i2r)) if i2r.size else NEVER_REVIEWED_SENTINEL_DAYS
        )

        gaps = np.diff(timestamps) / SECONDS_PER_DAY
        M[j, _COLUMN["inter_review_mean_days"]] = (
            float(np.mean(gaps)) if gaps.size else NEVER_REVIEWED_SENTINEL_DAYS
        )
        M[j, _COLUMN["inter_review_min_days"]] = (
            float(np.min(gaps)) if gaps.size else NEVER_REVIEWED_SENTINEL_DAYS
        )

    # -- usage (4)-(6): whole columns ------------------------------------
    M[:, _COLUMN["opened_multiple_days"]] = np.fromiter(
        (len(foreground_days.get(p, ())) > 1 for p in packages), np.float64, n
    )
    onscreen = np.fromiter(
        (foreground_snapshots.get(p, 0) for p in packages), np.float64, n
    )
    M[:, _COLUMN["onscreen_snapshots_per_day"]] = onscreen / active_days
    M[:, _COLUMN["device_snapshots_per_day"]] = obs.snapshots_per_day

    # -- inner retention (7): vectorized window overlap ------------------
    has_install_time = np.fromiter(
        (p in install_times for p in packages), np.bool_, n
    )
    install_time_arr = np.fromiter(
        (install_times.get(p, 0.0) for p in packages), np.float64, n
    )
    has_uninstall = np.fromiter(
        (p in last_uninstall for p in packages), np.bool_, n
    )
    uninstall_arr = np.fromiter(
        (last_uninstall.get(p, 0.0) for p in packages), np.float64, n
    )
    seen_from = np.maximum(install_time_arr, start)
    seen_to = np.where(has_uninstall, np.minimum(uninstall_arr, end), end)
    retention = np.maximum(0.0, (seen_to - seen_from) / SECONDS_PER_DAY)
    retention[~has_install_time] = math.nan
    spans = ((install_time_arr <= start) & ~has_uninstall).astype(np.float64)
    spans[~has_install_time] = 0.0
    M[:, _COLUMN["inner_retention_days"]] = retention
    M[:, _COLUMN["spans_study_window"]] = spans

    # -- permissions (8)-(9) and VT flags (10): table lookups ------------
    for j, package in enumerate(packages):
        if package in catalog:
            profile = catalog.get(package).permissions
            n_normal, n_dangerous = len(profile.normal), len(profile.dangerous)
        else:
            n_normal = n_dangerous = 0
        granted, denied = initial_perm.get(
            package, install_perm.get(package, (0, 0))
        )
        M[j, _COLUMN["n_normal_permissions"]] = float(n_normal)
        M[j, _COLUMN["n_dangerous_permissions"]] = float(n_dangerous)
        M[j, _COLUMN["n_permissions_granted"]] = float(granted)
        M[j, _COLUMN["n_permissions_denied"]] = float(denied)
        apk_hash = apk_hashes.get(package)
        M[j, _COLUMN["vt_flags"]] = (
            float(vt_client.positives(apk_hash))
            if vt_client is not None and apk_hash
            else 0.0
        )

    # -- install/uninstall events (11): whole columns --------------------
    M[:, _COLUMN["n_install_events"]] = np.fromiter(
        (install_counts.get(p, 0) for p in packages), np.float64, n
    )
    M[:, _COLUMN["n_uninstall_events"]] = np.fromiter(
        (uninstall_counts.get(p, 0) for p in packages), np.float64, n
    )
    return M
