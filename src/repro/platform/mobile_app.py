"""The RacketStore mobile app: sign-in, collectors, and daily reporting.

Mirrors §3's component structure:

* **sign-in interface** — validates the 6-digit participant ID issued at
  recruitment and mints the 10-digit random install ID;
* **initial data collector** — device info plus the installed-app list;
* **snapshot collectors** — fast (5 s: foreground app, screen, battery,
  install/uninstall deltas) and slow (2 min: accounts, save mode,
  stopped apps), emitted as run-length-encoded runs over the windows
  in which the collector was scheduled by Android;
* **data buffer** — accumulate/compress/upload with hash-verified
  delivery (see :mod:`repro.platform.buffer`).

Participants may deny either runtime permission (§3): denying
``PACKAGE_USAGE_STATS`` blanks the foreground field, denying
``GET_ACCOUNTS`` blanks the account list — this produces the partially
reporting devices the paper repeatedly notes (e.g. only 145 regular and
390 worker devices reported account data for Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulation.clock import SECONDS_PER_DAY, hours
from ..simulation.device import SimDevice
from ..simulation.events import EventType
from .buffer import DataBuffer
from .models import (
    AppChangeEvent,
    FastSnapshotRun,
    InitialSnapshot,
    InstalledAppInfo,
    SlowSnapshotRun,
)

__all__ = ["SignInError", "AppState", "RacketStoreApp"]


class SignInError(ValueError):
    """Raised when a participant enters an unknown 6-digit code."""


@dataclass(frozen=True)
class _Permissions:
    usage_stats: bool  # PACKAGE_USAGE_STATS
    get_accounts: bool  # GET_ACCOUNTS


@dataclass(slots=True)
class AppState:
    """Picklable install state (everything but the device reference).

    The phase-split day engine (DESIGN.md §12) ships this to shard
    workers instead of the app object itself: it carries no server,
    transport, or Generator — those are injected per call — so the
    payload satisfies the PAR001/PAR002 shipping rules.  The buffer
    travels because undelivered chunks are retried on later days.
    """

    participant_id: str
    usage_stats: bool
    get_accounts: bool
    idle_hours_median: float
    install_id: str | None
    installed_at: float | None
    uninstalled_at: float | None
    buffer: DataBuffer


class RacketStoreApp:
    """One install of the RacketStore app on one device.

    The install holds no server, transport or Generator: every I/O call
    (:meth:`sign_in` / :meth:`collect_day` / :meth:`uninstall`) takes
    the ones it uses.  The study loop passes a per-device-day rng and a
    recording uplink, which is what makes a device-day a pure function
    of its pre-drawn seed.
    """

    FAST_PERIOD_S = 5.0
    SLOW_PERIOD_S = 120.0

    def __init__(
        self,
        device: SimDevice,
        participant_id: str,
        rng: np.random.Generator | None = None,
        grant_usage_stats: bool = True,
        grant_get_accounts: bool = True,
    ) -> None:
        if rng is None:
            # No hidden fallback Generator (statan DET001): the caller
            # must make the randomness source explicit.
            raise ValueError("RacketStoreApp requires an explicit rng")
        self.device = device
        self.participant_id = participant_id
        self.permissions = _Permissions(grant_usage_stats, grant_get_accounts)
        self.buffer = DataBuffer()
        self.install_id: str | None = None
        self.installed_at: float | None = None
        self.uninstalled_at: float | None = None
        #: Median daily "collector uptime" outside foreground sessions:
        #: Android throttles background alarms, so idle coverage varies
        #: per device — this is what spreads Figure 4's snapshot counts.
        self._idle_hours_median = float(np.clip(rng.lognormal(np.log(2.2), 0.9), 0.1, 14.0))

    # -- state snapshots (phase-split shipping) ------------------------------
    def snapshot_state(self) -> AppState:
        """The install's current state, detached from device and I/O."""
        return AppState(
            participant_id=self.participant_id,
            usage_stats=self.permissions.usage_stats,
            get_accounts=self.permissions.get_accounts,
            idle_hours_median=self._idle_hours_median,
            install_id=self.install_id,
            installed_at=self.installed_at,
            uninstalled_at=self.uninstalled_at,
            buffer=self.buffer,
        )

    @classmethod
    def from_state(cls, device: SimDevice, state: AppState) -> "RacketStoreApp":
        """Rebuild a detached app in a worker."""
        app = object.__new__(cls)
        app.device = device
        app.participant_id = state.participant_id
        app.permissions = _Permissions(state.usage_stats, state.get_accounts)
        app.buffer = state.buffer
        app.install_id = state.install_id
        app.installed_at = state.installed_at
        app.uninstalled_at = state.uninstalled_at
        app._idle_hours_median = state.idle_hours_median
        return app

    def adopt_state(self, state: AppState) -> None:
        """Fold a worker's returned state back into this install."""
        self.install_id = state.install_id
        self.installed_at = state.installed_at
        self.uninstalled_at = state.uninstalled_at
        self.buffer = state.buffer

    # -- lifecycle -----------------------------------------------------------
    def sign_in(
        self,
        timestamp: float,
        *,
        rng: np.random.Generator,
        server,
        transport,
        backoff_rng: np.random.Generator | None = None,
    ) -> str:
        """Validate the participant code with the server and mint the
        install ID.  No data is collected before this succeeds (§3).

        ``backoff_rng`` (optional) jitters upload retry backoff; it is a
        dedicated stream so retry scheduling never perturbs behaviour
        draws from ``rng``."""
        if not server.is_valid_participant(self.participant_id):
            raise SignInError(f"unknown participant id {self.participant_id!r}")
        self.install_id = f"{rng.integers(10**9, 10**10 - 1):010d}"
        self.installed_at = float(timestamp)
        server.register_install(
            participant_id=self.participant_id,
            install_id=self.install_id,
            android_id=self.device.android_id,
            timestamp=timestamp,
        )
        self._send_initial_snapshot(timestamp, transport, backoff_rng)
        return self.install_id

    def uninstall(
        self,
        timestamp: float,
        *,
        transport,
        backoff_rng: np.random.Generator | None = None,
    ) -> None:
        self.buffer.seal_all()
        self.buffer.drain(
            transport,
            now=float(timestamp),
            deadline=float(timestamp) + SECONDS_PER_DAY,
            rng=backoff_rng,
        )
        self.uninstalled_at = float(timestamp)

    @property
    def active(self) -> bool:
        return self.install_id is not None and self.uninstalled_at is None

    # -- initial collector ------------------------------------------------------
    def _send_initial_snapshot(
        self, timestamp: float, transport, backoff_rng=None
    ) -> None:
        apps = []
        for rec in sorted(self.device.installed.values(), key=lambda r: r.package):
            granted_dangerous = sum(
                1
                for p in rec.granted_permissions
                if p.split(".")[-1] in _DANGEROUS_SUFFIXES
            )
            # Denied permissions are always dangerous ones (normal
            # permissions are granted automatically at install).
            n_dangerous = granted_dangerous + rec.n_denied
            apps.append(
                InstalledAppInfo(
                    package=rec.package,
                    install_time=rec.install_time,
                    last_update_time=rec.last_update_time,
                    apk_hash=rec.apk_hash,
                    n_granted=rec.n_granted,
                    n_denied=rec.n_denied,
                    n_normal_permissions=rec.n_granted - granted_dangerous,
                    n_dangerous_permissions=n_dangerous,
                    stopped=rec.stopped,
                    preinstalled=rec.preinstalled,
                )
            )
        apps = tuple(apps)
        snapshot = InitialSnapshot(
            install_id=self.install_id,
            participant_id=self.participant_id,
            android_id=self.device.android_id,
            api_level=self.device.api_level,
            model=self.device.model,
            manufacturer=self.device.manufacturer,
            timestamp=timestamp,
            installed_apps=apps,
        )
        self.buffer.append("slow", snapshot)
        self.buffer.seal_all()
        self.buffer.drain(
            transport,
            now=float(timestamp),
            deadline=float(timestamp) + SECONDS_PER_DAY,
            rng=backoff_rng,
        )

    # -- daily collection ---------------------------------------------------------
    def collect_day(
        self,
        day_start: float,
        *,
        rng: np.random.Generator,
        transport,
        backoff_rng: np.random.Generator | None = None,
    ) -> None:
        """Run both collectors over one study day and upload."""
        if not self.active:
            raise RuntimeError("collect_day on an inactive install")
        day_end = day_start + SECONDS_PER_DAY
        windows = self._coverage_windows(day_start, day_end, rng)
        self._emit_fast_runs(windows, rng)
        self._emit_slow_runs(windows)
        self._emit_app_changes(day_start, day_end)
        self.buffer.seal_all()
        self.buffer.drain(
            transport, now=day_start, deadline=day_end, rng=backoff_rng
        )

    def _coverage_windows(
        self, day_start: float, day_end: float, rng: np.random.Generator
    ) -> list[tuple[float, float, str | None]]:
        """(start, end, foreground) intervals the collectors were awake.

        Foreground sessions always produce coverage (the device is in
        use); idle coverage is drawn from the per-device uptime budget.
        ``prior_sessions`` covers sessions that started before a day
        view was cut but spill past its start (see SimDevice.day_view).
        """
        sessions = [
            s
            for s in (*self.device.prior_sessions, *self.device.sessions)
            if s.start < day_end and s.end > day_start
        ]
        windows: list[tuple[float, float, str | None]] = [
            (max(s.start, day_start), min(s.end, day_end), s.package) for s in sessions
        ]
        idle_budget = hours(
            float(np.clip(rng.lognormal(np.log(self._idle_hours_median), 0.5), 0.05, 15.0))
        )
        # Spread the idle budget over 1-3 screen-off windows.
        n_windows = int(rng.integers(1, 4))
        for _ in range(n_windows):
            duration = idle_budget / n_windows
            start = float(rng.uniform(day_start, max(day_start, day_end - duration)))
            windows.append((start, min(start + duration, day_end), None))
        # Full-tuple key: ties on start must not fall back to list
        # construction order, or a future refactor that builds windows
        # from an unordered source would silently reorder snapshots.
        windows.sort(key=lambda w: (w[0], w[1], w[2] or ""))
        return windows

    def _emit_fast_runs(self, windows, rng: np.random.Generator) -> None:
        battery = self.device.battery_level
        for start, end, foreground in windows:
            if end <= start:
                continue
            battery = max(0.05, battery - (end - start) / hours(30))
            self.buffer.append(
                "fast",
                FastSnapshotRun(
                    install_id=self.install_id,
                    participant_id=self.participant_id,
                    start=start,
                    end=end,
                    period=self.FAST_PERIOD_S,
                    foreground=foreground if self.permissions.usage_stats else None,
                    screen_on=foreground is not None,
                    battery=round(battery, 3),
                    usage_permission=self.permissions.usage_stats,
                ),
            )
        # Overnight recharge.
        self.device.battery_level = float(rng.uniform(0.6, 1.0))

    def _emit_slow_runs(self, windows) -> None:
        if self.permissions.get_accounts:
            accounts = tuple(
                (a.service, a.identifier) for a in self.device.accounts
            )
        else:
            accounts = ()
        stopped = tuple(self.device.stopped_packages())
        for start, end, _foreground in windows:
            if end <= start:
                continue
            self.buffer.append(
                "slow",
                SlowSnapshotRun(
                    install_id=self.install_id,
                    participant_id=self.participant_id,
                    android_id=self.device.android_id,
                    start=start,
                    end=end,
                    period=self.SLOW_PERIOD_S,
                    accounts=accounts,
                    save_mode=self.device.save_mode,
                    stopped_apps=stopped,
                    accounts_permission=self.permissions.get_accounts,
                ),
            )

    def _emit_app_changes(self, day_start: float, day_end: float) -> None:
        for event in self.device.events:
            if not day_start <= event.timestamp < day_end:
                continue
            if event.event_type is EventType.INSTALL:
                record = self.device.installed.get(event.package)
                self.buffer.append(
                    "fast",
                    AppChangeEvent(
                        install_id=self.install_id,
                        participant_id=self.participant_id,
                        timestamp=event.timestamp,
                        action="install",
                        package=event.package,
                        install_time=record.install_time if record else event.timestamp,
                        apk_hash=record.apk_hash if record else None,
                        n_granted=record.n_granted if record else 0,
                        n_denied=record.n_denied if record else 0,
                    ),
                )
            elif event.event_type is EventType.UNINSTALL:
                self.buffer.append(
                    "fast",
                    AppChangeEvent(
                        install_id=self.install_id,
                        participant_id=self.participant_id,
                        timestamp=event.timestamp,
                        action="uninstall",
                        package=event.package,
                    ),
                )


_DANGEROUS_SUFFIXES = frozenset(
    {
        "READ_CALENDAR", "WRITE_CALENDAR", "CAMERA", "READ_CONTACTS",
        "WRITE_CONTACTS", "GET_ACCOUNTS", "ACCESS_FINE_LOCATION",
        "ACCESS_COARSE_LOCATION", "RECORD_AUDIO", "READ_PHONE_STATE",
        "CALL_PHONE", "READ_CALL_LOG", "WRITE_CALL_LOG", "ADD_VOICEMAIL",
        "USE_SIP", "PROCESS_OUTGOING_CALLS", "BODY_SENSORS", "SEND_SMS",
        "RECEIVE_SMS", "READ_SMS", "RECEIVE_WAP_PUSH", "RECEIVE_MMS",
        "READ_EXTERNAL_STORAGE", "WRITE_EXTERNAL_STORAGE",
    }
)
