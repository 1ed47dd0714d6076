"""Reference implementations the fast paths in ``src/`` must agree with.

Neither runs in the product.  They are the semantics, written the
obvious way, that the equivalence tests compare against:

* :class:`BruteForceCollection` — the document store's query language
  as a scan over a plain list of dicts: no indexes, no staging, no
  plans, no caches, no ``mark``/``rollback_to``.
  ``repro.platform.store.ColumnarCollection`` must return the same
  documents in the same order for every query.
* :func:`extract_app_features` / :func:`app_feature_vector` and
  :func:`extract_device_features` / :func:`device_feature_vector` — the
  §7.1/§8.1 features computed one (app, device) instance or one device
  at a time.  ``app_feature_matrix`` and ``device_feature_matrix`` must
  equal the stacked vectors byte for byte.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.core.app_features import APP_FEATURE_NAMES, NEVER_REVIEWED_SENTINEL_DAYS
from repro.core.device_features import DEVICE_FEATURE_NAMES
from repro.simulation.clock import SECONDS_PER_DAY

# -- the store's query language ------------------------------------------------

#: Sentinel distinguishing "key absent" from an explicit ``None`` value,
#: so ``$exists`` tests presence while every other operator reads a
#: missing key as ``None``.
_MISSING = object()

OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda value, operand: value == operand,
    "$ne": lambda value, operand: value != operand,
    "$gt": lambda value, operand: value is not None and value > operand,
    "$gte": lambda value, operand: value is not None and value >= operand,
    "$lt": lambda value, operand: value is not None and value < operand,
    "$lte": lambda value, operand: value is not None and value <= operand,
    "$in": lambda value, operand: value in operand,
    "$exists": lambda value, operand: (value is not _MISSING) == bool(operand),
}


def matches(document: dict, query: dict) -> bool:
    for fieldname, condition in query.items():
        raw = document.get(fieldname, _MISSING)
        value = None if raw is _MISSING else raw
        if isinstance(condition, dict) and any(k.startswith("$") for k in condition):
            for op, operand in condition.items():
                handler = OPERATORS.get(op)
                if handler is None:
                    raise ValueError(f"unknown query operator {op!r}")
                if not handler(raw if op == "$exists" else value, operand):
                    return False
        elif value != condition:
            return False
    return True


class BruteForceCollection:
    """A list of dicts, every query a full scan in insertion order."""

    def __init__(self, documents=()) -> None:
        self._documents: list[dict] = list(documents)

    def __len__(self) -> int:
        return len(self._documents)

    def insert(self, document: dict) -> None:
        self._documents.append(document)

    def insert_many(self, documents) -> int:
        documents = list(documents)
        self._documents.extend(documents)
        return len(documents)

    def find(self, query: dict | None = None) -> list[dict]:
        query = query or {}
        return [doc for doc in self._documents if matches(doc, query)]

    def find_one(self, query: dict | None = None) -> dict | None:
        query = query or {}
        for doc in self._documents:
            if matches(doc, query):
                return doc
        return None

    def count(self, query: dict | None = None) -> int:
        return len(self.find(query))

    def distinct(self, fieldname: str, query: dict | None = None) -> list:
        seen: set = set()
        for doc in self.find(query):
            value = doc.get(fieldname)
            if isinstance(value, (list, tuple)):
                seen.update(value)
            else:
                seen.add(value)
        seen.discard(None)
        return sorted(seen, key=repr)


# -- §7.1 app features, one instance at a time -----------------------------------


def _mean_or_sentinel(values: list[float]) -> float:
    return float(np.mean(values)) if values else NEVER_REVIEWED_SENTINEL_DAYS


def _min_or_sentinel(values: list[float]) -> float:
    return float(min(values)) if values else NEVER_REVIEWED_SENTINEL_DAYS


def extract_app_features(obs, package, catalog, vt_client=None) -> dict[str, float]:
    """Feature dict for one (app, device) instance."""
    reviews = obs.reviews_for_app(package)
    start, end = obs.installed_at, obs.uninstalled_at

    before = {r.google_id for r in reviews if r.timestamp < start}
    during = {r.google_id for r in reviews if start <= r.timestamp <= end}
    after = {r.google_id for r in reviews if r.timestamp > end}

    # (2) install-to-review.
    i2r = obs.install_to_review_days(package)

    # (3) inter-review gaps.
    timestamps = sorted(r.timestamp for r in reviews)
    gaps = [
        (b - a) / SECONDS_PER_DAY for a, b in zip(timestamps, timestamps[1:])
    ]

    # (4)/(5) usage.
    days_used = obs.foreground_days.get(package, set())
    onscreen = obs.foreground_snapshots.get(package, 0)

    # (7) inner retention: overlap of the app's installed interval with
    # the RacketStore observation window.
    install_time = obs.install_times.get(package)
    uninstall_events = [
        e["timestamp"]
        for e in obs.app_changes
        if e["action"] == "uninstall" and e["package"] == package
    ]
    if install_time is None:
        retention_days = math.nan
        spans_window = 0.0
    else:
        seen_from = max(install_time, start)
        seen_to = min(uninstall_events[-1], end) if uninstall_events else end
        retention_days = max(0.0, (seen_to - seen_from) / SECONDS_PER_DAY)
        spans_window = float(install_time <= start and not uninstall_events)

    # (8)/(9) permissions: requested from the Play listing, granted and
    # denied from the device-side records.
    if package in catalog:
        profile = catalog.get(package).permissions
        n_normal, n_dangerous = len(profile.normal), len(profile.dangerous)
    else:
        n_normal = n_dangerous = 0
    granted = denied = 0
    for app_info in obs.initial_apps:
        if app_info["package"] == package:
            granted, denied = app_info["n_granted"], app_info["n_denied"]
            break
    else:
        for event in obs.app_changes:
            if event["action"] == "install" and event["package"] == package:
                granted, denied = event.get("n_granted", 0), event.get("n_denied", 0)

    # (10) VirusTotal flags.
    apk_hash = obs.apk_hashes.get(package)
    vt_flags = (
        float(vt_client.positives(apk_hash))
        if vt_client is not None and apk_hash
        else 0.0
    )

    return {
        "accounts_reviewed_before": float(len(before)),
        "accounts_reviewed_during": float(len(during)),
        "accounts_reviewed_after": float(len(after)),
        "accounts_reviewed_total": float(len(before | during | after)),
        "install_to_review_mean_days": _mean_or_sentinel(i2r),
        "install_to_review_min_days": _min_or_sentinel(i2r),
        "inter_review_mean_days": _mean_or_sentinel(gaps),
        "inter_review_min_days": _min_or_sentinel(gaps),
        "opened_multiple_days": float(len(days_used) > 1),
        "onscreen_snapshots_per_day": onscreen / max(obs.active_days, 1),
        "device_snapshots_per_day": obs.snapshots_per_day,
        "inner_retention_days": retention_days,
        "spans_study_window": spans_window,
        "n_normal_permissions": float(n_normal),
        "n_dangerous_permissions": float(n_dangerous),
        "n_permissions_granted": float(granted),
        "n_permissions_denied": float(denied),
        "vt_flags": vt_flags,
        "n_install_events": float(obs.install_event_counts.get(package, 0)),
        "n_uninstall_events": float(obs.uninstall_event_counts.get(package, 0)),
    }


def app_feature_vector(obs, package, catalog, vt_client=None) -> np.ndarray:
    """Feature dict flattened into the canonical APP_FEATURE_NAMES order."""
    features = extract_app_features(obs, package, catalog, vt_client)
    return np.array([features[name] for name in APP_FEATURE_NAMES], dtype=np.float64)


# -- §8.1 device features, one device at a time ----------------------------------


def extract_device_features(obs, app_suspiciousness=None) -> dict[str, float]:
    """Feature dict for one device; ``None`` suspiciousness reads as NaN."""
    n_accounts = max(obs.n_gmail_accounts, 1)
    return {
        "n_preinstalled_apps": float(obs.n_preinstalled),
        "n_user_installed_apps": float(obs.n_user_installed),
        "app_suspiciousness": (
            float(app_suspiciousness) if app_suspiciousness is not None else math.nan
        ),
        "n_stopped_apps": float(len(obs.stopped_apps_first)),
        "daily_installs": obs.daily_installs,
        "daily_uninstalls": obs.daily_uninstalls,
        "n_gmail_accounts": float(obs.n_gmail_accounts),
        "n_non_gmail_accounts": float(obs.n_non_gmail_accounts),
        "n_account_types": float(obs.n_account_types),
        "n_installed_and_reviewed": float(obs.n_installed_and_reviewed),
        "total_apps_reviewed": float(obs.apps_reviewed_total),
        "total_reviews": float(obs.total_account_reviews),
        "reviews_per_account_mean": obs.total_account_reviews / n_accounts,
        "apps_used_per_day": obs.apps_used_per_day,
        "snapshots_per_day": obs.snapshots_per_day,
    }


def device_feature_vector(obs, app_suspiciousness=None) -> np.ndarray:
    features = extract_device_features(obs, app_suspiciousness)
    return np.array(
        [features[name] for name in DEVICE_FEATURE_NAMES], dtype=np.float64
    )
