"""Snapshot schema and PII registry for the RacketStore platform.

§3 defines two snapshot families: *slow* (every 2 minutes: identifiers,
registered accounts, save-mode status, stopped apps) and *fast* (every
5 seconds: identifiers, foreground app, screen/battery status, and
install/uninstall deltas).  Because consecutive snapshots are almost
always identical, the wire format here is run-length encoded: one
``*SnapshotRun`` record stands for every periodic snapshot taken while
the captured state was constant.  A run of ``period`` spacing over
[start, end] holds ``1 + (end - start) // period`` snapshots, so the §6.1
engagement statistics recover exact counts.

Table 3's PII inventory is reproduced as :data:`PII_REGISTRY`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

__all__ = [
    "SlowSnapshotRun",
    "FastSnapshotRun",
    "AppChangeEvent",
    "InstalledAppInfo",
    "InitialSnapshot",
    "PIIEntry",
    "PII_REGISTRY",
    "record_to_dict",
    "record_from_dict",
]


def _check_run(run: "SlowSnapshotRun | FastSnapshotRun") -> None:
    """Reject a run whose snapshot count ``1 + (end - start) // period``
    would be negative or undefined."""
    if run.period <= 0:
        raise ValueError(f"snapshot run period {run.period!r} is not positive")
    if run.end < run.start:
        raise ValueError(f"snapshot run ends at {run.end!r}, before its start {run.start!r}")


@dataclass(frozen=True, slots=True)
class SlowSnapshotRun:
    """RLE run of slow (2-minute) snapshots with constant state."""

    install_id: str
    participant_id: str
    android_id: str | None
    start: float
    end: float
    period: float
    #: (service, identifier) pairs; empty tuple when GET_ACCOUNTS denied.
    accounts: tuple[tuple[str, str], ...]
    save_mode: bool
    stopped_apps: tuple[str, ...]
    accounts_permission: bool = True

    def __post_init__(self) -> None:
        _check_run(self)


@dataclass(frozen=True, slots=True)
class FastSnapshotRun:
    """RLE run of fast (5-second) snapshots with constant state."""

    install_id: str
    participant_id: str
    start: float
    end: float
    period: float
    foreground: str | None
    screen_on: bool
    battery: float
    usage_permission: bool = True

    def __post_init__(self) -> None:
        _check_run(self)


@dataclass(frozen=True, slots=True)
class AppChangeEvent:
    """Install/uninstall delta between consecutive installed-app sets."""

    install_id: str
    participant_id: str
    timestamp: float
    action: str  # "install" | "uninstall"
    package: str
    install_time: float | None = None
    apk_hash: str | None = None
    n_granted: int = 0
    n_denied: int = 0
    n_normal_permissions: int = 0
    n_dangerous_permissions: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("install", "uninstall"):
            raise ValueError(f"unknown app-change action {self.action!r}")


@dataclass(frozen=True, slots=True)
class InstalledAppInfo:
    """Per-app metadata in the initial snapshot (§3 initial collector)."""

    package: str
    install_time: float
    last_update_time: float
    apk_hash: str
    n_granted: int
    n_denied: int
    n_normal_permissions: int
    n_dangerous_permissions: int
    stopped: bool
    preinstalled: bool


@dataclass(frozen=True, slots=True)
class InitialSnapshot:
    """First report after sign-in: device info + full installed-app list."""

    install_id: str
    participant_id: str
    android_id: str | None
    api_level: int
    model: str
    manufacturer: str
    timestamp: float
    installed_apps: tuple[InstalledAppInfo, ...]


@dataclass(frozen=True)
class PIIEntry:
    """One row of Table 3 (PII / collector / reasons / deletion)."""

    pii: str
    collector: str
    reason: str
    deletion: str


#: Table 3 of the paper, verbatim.
PII_REGISTRY: tuple[PIIEntry, ...] = (
    PIIEntry("Accounts", "RacketStore", "Classification", "After use"),
    PIIEntry("Accounts", "RacketStore", "Review collection", "After use"),
    PIIEntry("Email", "Website", "Recruitment", "After use"),
    PIIEntry("IP address", "Backend", "Statistics", "Not stored"),
    PIIEntry("Device ID", "RacketStore", "Snap. fingerprint", "After use"),
    PIIEntry("Payment Info", "Author", "Payment", "Not stored"),
)


_RECORD_TYPES = {
    "slow_run": SlowSnapshotRun,
    "fast_run": FastSnapshotRun,
    "app_change": AppChangeEvent,
    "initial": InitialSnapshot,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}
_FIELD_NAMES = {
    cls: tuple(f.name for f in fields(cls)) for cls in (*_TYPE_NAMES, InstalledAppInfo)
}


def record_to_dict(record: Any) -> dict:
    """Serialise a snapshot record to a JSON-compatible dict with a type tag.

    Keys follow the dataclass field order, with ``_type`` last, and
    values are the record's own (immutable) field values, not copies.
    The JSON line of every record must equal, byte for byte, the one
    built from the deep-copying reference in ``tests/oracles.py``.
    """
    cls = type(record)
    if cls not in _TYPE_NAMES:
        raise TypeError(f"not a snapshot record: {cls.__name__}")
    payload = {name: getattr(record, name) for name in _FIELD_NAMES[cls]}
    if cls is InitialSnapshot:
        app_fields = _FIELD_NAMES[InstalledAppInfo]
        payload["installed_apps"] = [
            {name: getattr(app, name) for name in app_fields}
            for app in record.installed_apps
        ]
    payload["_type"] = _TYPE_NAMES[cls]
    return payload


def record_from_dict(payload: dict) -> Any:
    """Inverse of :func:`record_to_dict`."""
    payload = dict(payload)
    type_name = payload.pop("_type", None)
    if type_name not in _RECORD_TYPES:
        raise ValueError(f"unknown record type {type_name!r}")
    cls = _RECORD_TYPES[type_name]
    if cls is InitialSnapshot:
        payload["installed_apps"] = tuple(
            InstalledAppInfo(**a) for a in payload["installed_apps"]
        )
    if cls is SlowSnapshotRun:
        payload["accounts"] = tuple(tuple(pair) for pair in payload["accounts"])
        payload["stopped_apps"] = tuple(payload["stopped_apps"])
    return cls(**payload)
