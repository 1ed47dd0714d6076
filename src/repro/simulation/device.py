"""Simulated Android device state.

Tracks everything the RacketStore collectors observe: the installed-app
set with per-app install times, stop state and granted/denied
permissions (the Android API surface §3 reads), registered accounts,
screen/battery status, plus the interaction event log behind Figure 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..playstore.catalog import App
from .accounts import DeviceAccount
from .events import DeviceEvent, EventType, ForegroundSession

__all__ = ["InstalledApp", "SimDevice", "DEVICE_MODELS"]

#: (manufacturer, model) pairs; §3: top manufacturers were Samsung,
#: Huawei, Oppo, Xiaomi, Vivo.
DEVICE_MODELS: tuple[tuple[str, str], ...] = (
    ("Samsung", "SM-A105F"), ("Samsung", "SM-G973F"), ("Samsung", "SM-J701F"),
    ("Huawei", "P30 Lite"), ("Huawei", "Y9 Prime"), ("Oppo", "CPH1909"),
    ("Oppo", "A5s"), ("Xiaomi", "Redmi Note 7"), ("Xiaomi", "Mi A2"),
    ("Vivo", "1904"), ("Vivo", "Y91C"), ("Realme", "RMX1911"),
    ("Motorola", "Moto G7"), ("Nokia", "TA-1032"), ("OnePlus", "A6000"),
    ("Infinix", "X650"), ("Tecno", "KC8"), ("Lenovo", "K8 Note"),
)

_device_counter = itertools.count(1)


@dataclass(slots=True)
class InstalledApp:
    """Per-app install record as exposed by the Android package manager."""

    package: str
    install_time: float
    last_update_time: float
    apk_hash: str
    stopped: bool = True  # Android >= 3.1: fresh installs start stopped.
    granted_permissions: tuple[str, ...] = ()
    denied_permissions: tuple[str, ...] = ()
    preinstalled: bool = False
    promo_install: bool = False  # ground truth: installed for promotion
    retention_until: float = float("inf")

    @property
    def n_granted(self) -> int:
        return len(self.granted_permissions)

    @property
    def n_denied(self) -> int:
        return len(self.denied_permissions)


class SimDevice:
    """One participant Android device and its full interaction history."""

    def __init__(
        self,
        persona_kind: str,
        is_worker: bool,
        rng: np.random.Generator,
        android_id_missing: bool = False,
    ) -> None:
        index = next(_device_counter)
        manufacturer, model = DEVICE_MODELS[int(rng.integers(0, len(DEVICE_MODELS)))]
        self.device_id = f"dev{index:05d}"
        #: Android ID; None models the §Appendix-A incompatible devices
        #: whose snapshots lacked identifiers.
        self.android_id: str | None = (
            None if android_id_missing else f"aid{rng.integers(10**15, 10**16 - 1):016x}"
        )
        self.manufacturer = manufacturer
        self.model = model
        self.api_level = int(rng.integers(21, 30))
        self.persona_kind = persona_kind
        self.is_worker = is_worker
        #: Apparent country (from the §4 cohort distribution); the
        #: backend only ever sees the IP-derived approximation.
        self.country: str = "OTHER"

        self.accounts: list[DeviceAccount] = []
        self.installed: dict[str, InstalledApp] = {}
        self.uninstalled_log: list[tuple[float, str]] = []
        self.events: list[DeviceEvent] = []
        self.sessions: list[ForegroundSession] = []
        #: Sessions that started before the current day view but are
        #: still open at its start (a late-evening session can spill
        #: past midnight).  Always empty on a full-history device.
        self.prior_sessions: tuple[ForegroundSession, ...] = ()
        self.battery_level: float = float(rng.uniform(0.3, 1.0))
        self.save_mode: bool = bool(rng.random() < 0.15)

    # -- accounts -----------------------------------------------------------
    def register_account(self, account: DeviceAccount) -> None:
        self.accounts.append(account)

    def gmail_accounts(self) -> list[DeviceAccount]:
        return [a for a in self.accounts if a.is_gmail]

    # -- install lifecycle ----------------------------------------------------
    def install(
        self,
        app: App,
        timestamp: float,
        grant_probability: float,
        rng: np.random.Generator,
        promo: bool = False,
        retention_days: float = float("inf"),
        preinstalled: bool = False,
    ) -> InstalledApp:
        """Install an app: permissions are granted per-permission with
        ``grant_probability`` (dangerous only; normal always granted)."""
        granted = list(app.permissions.normal)
        denied: list[str] = []
        for permission in app.permissions.dangerous:
            if rng.random() < grant_probability:
                granted.append(permission)
            else:
                denied.append(permission)
        record = InstalledApp(
            package=app.package,
            install_time=timestamp,
            last_update_time=timestamp,
            apk_hash=app.current_apk_hash,
            stopped=not preinstalled,
            granted_permissions=tuple(granted),
            denied_permissions=tuple(denied),
            preinstalled=preinstalled,
            promo_install=promo,
            retention_until=timestamp + retention_days * 86_400.0
            if retention_days != float("inf")
            else float("inf"),
        )
        self.installed[app.package] = record
        if not preinstalled:
            self.events.append(DeviceEvent(timestamp, EventType.INSTALL, app.package))
        return record

    def uninstall(self, package: str, timestamp: float) -> bool:
        record = self.installed.pop(package, None)
        if record is None:
            return False
        self.uninstalled_log.append((timestamp, package))
        self.events.append(DeviceEvent(timestamp, EventType.UNINSTALL, package))
        return True

    def open_app(self, package: str, timestamp: float, duration_s: float) -> ForegroundSession | None:
        """Bring an app to the foreground (clears its stopped state)."""
        record = self.installed.get(package)
        if record is None:
            return None
        record.stopped = False
        session = ForegroundSession(timestamp, timestamp + duration_s, package)
        self.sessions.append(session)
        self.events.append(DeviceEvent(timestamp, EventType.FOREGROUND, package))
        return session

    def stop_app(self, package: str, timestamp: float) -> bool:
        """Force-stop an app (§6.3: workers stop misbehaving promo apps)."""
        record = self.installed.get(package)
        if record is None:
            return False
        record.stopped = True
        self.events.append(DeviceEvent(timestamp, EventType.STOP, package))
        return True

    def record_review_event(self, package: str, timestamp: float) -> None:
        self.events.append(DeviceEvent(timestamp, EventType.REVIEW, package))

    # -- day views (phase-split engine, DESIGN.md §12) ----------------------
    def day_view(self, day_start: float) -> "SimDevice":
        """Start-of-day snapshot shipped to a phase-1 shard worker.

        The view shares the mutable install table and account list (the
        shard's pickle round-trip copies them; the serial path mutates
        them in place — :meth:`absorb_day` converges both) but carries
        *empty* event/session/uninstall logs, so the worker payload and
        the returned deltas stay O(one day) instead of O(history).
        """
        view = object.__new__(SimDevice)
        view.device_id = self.device_id
        view.android_id = self.android_id
        view.manufacturer = self.manufacturer
        view.model = self.model
        view.api_level = self.api_level
        view.persona_kind = self.persona_kind
        view.is_worker = self.is_worker
        view.country = self.country
        view.accounts = self.accounts
        view.installed = self.installed
        view.uninstalled_log = []
        view.events = []
        view.sessions = []
        # Carry over still-open sessions: they produce snapshot coverage
        # in the new day.  Sessions never span more than one midnight,
        # so scanning back one day's worth of history is enough.
        carryover = []
        for session in reversed(self.sessions):
            if session.start < day_start - 86_400.0:
                break
            if session.end > day_start:
                carryover.append(session)
        view.prior_sessions = tuple(reversed(carryover))
        view.battery_level = self.battery_level
        view.save_mode = self.save_mode
        return view

    def absorb_day(self, view: "SimDevice") -> None:
        """Fold a day view's deltas back into the full-history device."""
        self.installed = view.installed
        self.battery_level = view.battery_level
        self.uninstalled_log.extend(view.uninstalled_log)
        self.events.extend(view.events)
        self.sessions.extend(view.sessions)

    # -- views ------------------------------------------------------------------
    def installed_packages(self) -> set[str]:
        return set(self.installed)

    def stopped_packages(self) -> list[str]:
        return sorted(p for p, rec in self.installed.items() if rec.stopped)

    def user_installed(self) -> list[InstalledApp]:
        return [rec for rec in self.installed.values() if not rec.preinstalled]

    def promo_installed(self) -> list[InstalledApp]:
        return [rec for rec in self.installed.values() if rec.promo_install]
