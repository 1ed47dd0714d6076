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

The server checks each decoded line with :func:`check_record`: the
line's schema and the checks the record classes make, without building
a record.

Table 3's PII inventory is reproduced as :data:`PII_REGISTRY`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from ..frames import APP_CHANGE_SCHEMA, FAST_RUN_SCHEMA, INITIAL_SCHEMA, SLOW_RUN_SCHEMA

__all__ = [
    "SlowSnapshotRun",
    "FastSnapshotRun",
    "AppChangeEvent",
    "InstalledAppInfo",
    "InitialSnapshot",
    "PIIEntry",
    "PII_REGISTRY",
    "check_record",
    "record_to_dict",
]

_ACTIONS = ("install", "uninstall")


def _check_run(start, end, period) -> None:
    """Reject a run whose snapshot count ``1 + (end - start) // period``
    would be negative or undefined."""
    if period <= 0:
        raise ValueError(f"snapshot run period {period!r} is not positive")
    if end < start:
        raise ValueError(f"snapshot run ends at {end!r}, before its start {start!r}")


def _check_action(action) -> None:
    if action not in _ACTIONS:
        raise ValueError(f"unknown app-change action {action!r}")


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
        _check_run(self.start, self.end, self.period)


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
        _check_run(self.start, self.end, self.period)


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
        _check_action(self.action)


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


_TYPE_NAMES = {
    SlowSnapshotRun: "slow_run",
    FastSnapshotRun: "fast_run",
    AppChangeEvent: "app_change",
    InitialSnapshot: "initial",
}
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


_SCHEMAS = {
    schema.name: schema
    for schema in (SLOW_RUN_SCHEMA, FAST_RUN_SCHEMA, APP_CHANGE_SCHEMA, INITIAL_SCHEMA)
}
_APP_FIELDS = frozenset(_FIELD_NAMES[InstalledAppInfo])


def check_record(payload: Any) -> str:
    """Check one decoded wire line and return its ``_type``; build nothing.

    Raises ``TypeError`` or ``ValueError`` unless ``payload`` is a dict
    with a known ``_type`` that passes its schema's
    :meth:`~repro.frames.schema.RecordSchema.validate` (exactly the
    schema's keys, every scalar of its kind, every float finite) and the
    invariants its record class enforces: a run's ``period > 0`` and
    ``end >= start``, an app change's ``install``/``uninstall`` action,
    exactly :class:`InstalledAppInfo`'s keys on each initial-snapshot
    app, and iterable accounts, account pairs and stopped apps.
    """
    if type(payload) is not dict:
        raise TypeError(f"record line is a {type(payload).__name__}, not an object")
    type_name = payload.get("_type")
    schema = _SCHEMAS.get(type_name)
    if schema is None:
        raise ValueError(f"unknown record type {type_name!r}")
    schema.validate(payload)
    if type_name == "fast_run":
        _check_run(payload["start"], payload["end"], payload["period"])
    elif type_name == "slow_run":
        _check_run(payload["start"], payload["end"], payload["period"])
        for pair in payload["accounts"]:
            iter(pair)
        iter(payload["stopped_apps"])
    elif type_name == "app_change":
        _check_action(payload["action"])
    else:
        for app in payload["installed_apps"]:
            if type(app) is not dict or app.keys() != _APP_FIELDS:
                raise TypeError("initial-snapshot app does not carry the app fields")
    return type_name
