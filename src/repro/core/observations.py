"""Device observations: the analysis-facing view of collected data.

Everything in §6-§8 is computed from what RacketStore *collected* — the
snapshot records ingested by the server, the Play reviews fetched by the
review crawler, and the Gmail→Google-ID mappings from the ID crawler —
never from simulator ground truth.  :class:`DeviceObservation` bundles
those sources for one participant device and exposes the derived
quantities the measurements and feature extractors need.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..frames import ColumnFrame, ColumnRun, FrameRow
from ..playstore.reviews import Review
from ..simulation.clock import SECONDS_PER_DAY
from ..simulation.world import Participant, StudyData

__all__ = ["DeviceObservation", "build_observations"]


def _partition_runs(
    frame: ColumnFrame, order_field: str
) -> dict[str, ColumnRun]:
    """install_id -> zero-copy :class:`ColumnRun`, sorted by
    ``order_field``.

    One stable argsort over the whole column reproduces, for every
    install at once, exactly what ``sorted(find({install_id: ...}),
    key=order_field)`` returns per install: ascending ``order_field``
    with insertion order breaking ties.  No per-row view objects are
    materialized — each install gets a position run whose column
    slices the accessors consume directly.
    """
    ids = frame.values("install_id")
    order = np.argsort(frame.column(order_field), kind="stable")
    grouped: dict[str, list[int]] = {}
    for position in order.tolist():
        grouped.setdefault(ids[position], []).append(position)
    return {
        install_id: ColumnRun(frame, positions)
        for install_id, positions in grouped.items()
    }


def _first_rows(frame: ColumnFrame) -> dict[str, FrameRow]:
    """install_id -> view of its first inserted row (``find_one``)."""
    ids = frame.values("install_id")
    first: dict[str, FrameRow] = {}
    for position, install_id in enumerate(ids):
        if install_id not in first:
            first[install_id] = FrameRow(frame, position)
    return first


def _snapshot_total(run: ColumnRun) -> int:
    """Sum of ``1 + (end - start) // period`` over the runs.

    Exact: numpy's float64 ``floor_divide`` matches CPython's ``//``
    result bit for bit, and truncating the already-floored quotient
    equals ``int(...)``.
    """
    counts = (run.column("end") - run.column("start")) // run.column("period")
    return int(len(run) + counts.astype(np.int64).sum())


def _clip_runs(runs: ColumnRun, cutoff: float) -> ColumnRun:
    """The runs that start before ``cutoff``, each ending by it, copied
    into a small frame of the same schema."""
    frame = ColumnFrame(runs.frame.schema)
    frame.extend_batch(
        [
            {**run, "end": min(run["end"], cutoff)}
            for run in runs
            if run["start"] < cutoff
        ]
    )
    return frame.run(np.arange(len(frame)))


def _snapshot_getters(data: StudyData):
    """Per-install accessors for (initial, slow, fast, app_changes).

    One pass per collection builds every install's zero-copy view list,
    in the order the server's per-install queries return
    (``server.fast_runs(install_id)`` etc.); an install with no rows
    gets an empty run.
    """
    store = data.server.store
    names = ("initial_snapshots", "slow_runs", "fast_runs", "app_changes")
    initial, slow, fast, changes = (store[name].frame for name in names)
    slow_map = _partition_runs(slow, "start")
    fast_map = _partition_runs(fast, "start")
    change_map = _partition_runs(changes, "timestamp")
    no_slow, no_fast, no_changes = slow.run(()), fast.run(()), changes.run(())
    return (
        _first_rows(initial).get,
        lambda install_id: slow_map.get(install_id, no_slow),
        lambda install_id: fast_map.get(install_id, no_fast),
        lambda install_id: change_map.get(install_id, no_changes),
    )


@dataclass
class DeviceObservation:
    """All collected data for one device, with derived accessors.

    The snapshot runs are :class:`~repro.frames.ColumnRun` position runs
    over typed frames: zero-copy views of the ingest frames as
    :func:`build_observations` assembles them, or small frames of the
    same schemas (:meth:`truncated`).  The hot accessors (snapshot
    totals, foreground usage, app-change scans) read whole column
    slices instead of touching rows one by one; the per-row reference
    they must equal lives in ``tests/oracles.py``.
    """

    participant: Participant
    install_id: str
    initial: Mapping | None
    slow_runs: ColumnRun
    fast_runs: ColumnRun
    app_changes: ColumnRun
    #: Google IDs of the Gmail accounts seen in slow snapshots, resolved
    #: through the ID crawler (§5).
    google_ids: frozenset[str]
    #: package -> time-ordered reviews from this device's accounts.
    device_reviews: dict[str, list[Review]] = field(default_factory=dict)
    #: every review posted by this device's accounts (any app).
    all_account_reviews: list[Review] = field(default_factory=list)

    # -- study window -----------------------------------------------------
    @property
    def installed_at(self) -> float:
        return self.participant.app.installed_at or 0.0

    @property
    def uninstalled_at(self) -> float:
        if self.participant.app.uninstalled_at is not None:
            return self.participant.app.uninstalled_at
        return (
            self.participant.enrolled_day + self.participant.active_days
        ) * SECONDS_PER_DAY

    @property
    def active_days(self) -> int:
        if self._active_days_override is not None:
            return self._active_days_override
        return self.participant.active_days

    @property
    def is_worker(self) -> bool:
        """Ground-truth cohort label (used only for training/eval)."""
        return self.participant.is_worker

    # -- accounts (from slow snapshots) ------------------------------------
    @cached_property
    def reported_accounts(self) -> tuple[tuple[str, str], ...]:
        """Accounts from the latest slow run that carried the permission."""
        frame = self.slow_runs.frame
        permissions = frame.values("accounts_permission")
        accounts = frame.values("accounts")
        for position in reversed(self.slow_runs.positions.tolist()):
            if permissions[position] and accounts[position]:
                return tuple(tuple(pair) for pair in accounts[position])
        return ()

    @property
    def reported_account_data(self) -> bool:
        """Whether GET_ACCOUNTS data ever arrived for this device."""
        return bool(self.slow_runs.column("accounts_permission").any())

    @cached_property
    def gmail_addresses(self) -> tuple[str, ...]:
        return tuple(
            identifier
            for service, identifier in self.reported_accounts
            if service == "com.google"
        )

    @property
    def n_gmail_accounts(self) -> int:
        return len(self.gmail_addresses)

    @property
    def n_non_gmail_accounts(self) -> int:
        return len(self.reported_accounts) - self.n_gmail_accounts

    @property
    def n_account_types(self) -> int:
        return len({service for service, _ in self.reported_accounts})

    # -- installed apps (from initial snapshot + change events) ------------
    @cached_property
    def initial_apps(self) -> list[dict]:
        if not self.initial:
            return []
        return list(self.initial["installed_apps"])

    @cached_property
    def initial_packages(self) -> frozenset[str]:
        return frozenset(a["package"] for a in self.initial_apps)

    @property
    def n_installed_apps(self) -> int:
        return len(self.initial_apps)

    @property
    def n_preinstalled(self) -> int:
        return sum(1 for a in self.initial_apps if a["preinstalled"])

    @property
    def n_user_installed(self) -> int:
        return self.n_installed_apps - self.n_preinstalled

    @cached_property
    def stopped_apps_first(self) -> tuple[str, ...]:
        """Stopped-app list from the first slow snapshot (enrollment state)."""
        for run in self.slow_runs:
            return tuple(run["stopped_apps"])
        return ()

    def _change_cells(self, *fields: str) -> zip:
        """Parallel raw-value streams over the app-change run."""
        return zip(*(self.app_changes.cells(name) for name in fields))

    @cached_property
    def install_times(self) -> dict[str, float]:
        """package -> last known Android install time (initial snapshot,
        overridden by any install events during the study)."""
        times = {a["package"]: a["install_time"] for a in self.initial_apps}
        for action, package, install_time in self._change_cells(
            "action", "package", "install_time"
        ):
            if action == "install" and install_time is not None:
                times[package] = install_time
        return times

    @cached_property
    def apk_hashes(self) -> dict[str, str]:
        hashes = {
            a["package"]: a["apk_hash"] for a in self.initial_apps if a["apk_hash"]
        }
        for action, package, apk_hash in self._change_cells(
            "action", "package", "apk_hash"
        ):
            if action == "install" and apk_hash:
                hashes[package] = apk_hash
        return hashes

    @cached_property
    def observed_packages(self) -> frozenset[str]:
        """Every package seen installed at any point during the study."""
        packages = set(self.initial_packages)
        packages.update(
            package
            for action, package in self._change_cells("action", "package")
            if action == "install"
        )
        return frozenset(packages)

    def _event_counts(self, wanted: str) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for action, package in self._change_cells("action", "package"):
            if action == wanted:
                counts[package] += 1
        return dict(counts)

    @cached_property
    def install_event_counts(self) -> dict[str, int]:
        return self._event_counts("install")

    @cached_property
    def uninstall_event_counts(self) -> dict[str, int]:
        return self._event_counts("uninstall")

    @property
    def daily_installs(self) -> float:
        return sum(self.install_event_counts.values()) / max(self.active_days, 1)

    @property
    def daily_uninstalls(self) -> float:
        return sum(self.uninstall_event_counts.values()) / max(self.active_days, 1)

    # -- usage (from fast snapshots) ------------------------------------------
    @cached_property
    def foreground_days(self) -> dict[str, set[int]]:
        """package -> set of day indexes on which it held the foreground."""
        out: dict[str, set[int]] = defaultdict(set)
        run = self.fast_runs
        firsts = (run.column("start") // SECONDS_PER_DAY).astype(np.int64).tolist()
        lasts = (run.column("end") // SECONDS_PER_DAY).astype(np.int64).tolist()
        for package, first, last in zip(run.cells("foreground"), firsts, lasts):
            if package is None:
                continue
            days = out[package]
            for day in range(first, last + 1):
                days.add(day)
        return dict(out)

    @cached_property
    def foreground_snapshots(self) -> dict[str, int]:
        """package -> total number of fast snapshots with it on screen."""
        out: dict[str, int] = defaultdict(int)
        run = self.fast_runs
        counts = (
            ((run.column("end") - run.column("start")) // run.column("period"))
            .astype(np.int64)
            .tolist()
        )
        for package, count in zip(run.cells("foreground"), counts):
            if package is None:
                continue
            out[package] += 1 + count
        return dict(out)

    @property
    def apps_used_per_day(self) -> float:
        if not self.foreground_days:
            return 0.0
        day_sets: dict[int, set[str]] = defaultdict(set)
        for package, day_indexes in self.foreground_days.items():
            for day in day_indexes:
                day_sets[day].add(package)
        if not day_sets:
            return 0.0
        return sum(len(s) for s in day_sets.values()) / max(self.active_days, 1)

    @cached_property
    def total_snapshots(self) -> int:
        return _snapshot_total(self.fast_runs) + _snapshot_total(self.slow_runs)

    @property
    def snapshots_per_day(self) -> float:
        return self.total_snapshots / max(self.active_days, 1)

    # -- reviews (from crawlers) ----------------------------------------------
    def reviews_for_app(self, package: str) -> list[Review]:
        """Reviews for ``package`` from accounts on this device."""
        return self.device_reviews.get(package, [])

    @property
    def apps_reviewed_total(self) -> int:
        """Distinct apps reviewed from the device's accounts (Fig 6 right
        counts reviews; this counts apps — both are exposed)."""
        return len({r.app_package for r in self.all_account_reviews})

    @property
    def total_account_reviews(self) -> int:
        return len(self.all_account_reviews)

    @property
    def n_installed_and_reviewed(self) -> int:
        """Apps currently installed that were reviewed from the device."""
        return sum(
            1 for package in self.initial_packages if self.device_reviews.get(package)
        )

    def truncated(self, days: float) -> "DeviceObservation":
        """A copy of this observation limited to the first ``days`` of
        the study window — used to ask how much telemetry the detector
        needs (the paper keeps only devices with >= 2 days of snapshots).

        Reviews are not truncated: the Play-side review history is
        available regardless of how long RacketStore ran.
        """
        cutoff = self.installed_at + days * SECONDS_PER_DAY
        changes = self.app_changes
        clipped = DeviceObservation(
            participant=self.participant,
            install_id=self.install_id,
            initial=self.initial,
            slow_runs=_clip_runs(self.slow_runs, cutoff),
            fast_runs=_clip_runs(self.fast_runs, cutoff),
            app_changes=changes.frame.run(
                changes.positions[changes.column("timestamp") < cutoff]
            ),
            google_ids=self.google_ids,
            device_reviews=self.device_reviews,
            all_account_reviews=self.all_account_reviews,
        )
        clipped._active_days_override = max(1, int(min(days, self.active_days)))
        return clipped

    _active_days_override: int | None = None

    def install_to_review_days(self, package: str) -> list[float]:
        """Positive install-to-review intervals for one app (§6.3: reviews
        predating the last install are discarded)."""
        install_time = self.install_times.get(package)
        if install_time is None:
            return []
        return [
            (review.timestamp - install_time) / SECONDS_PER_DAY
            for review in self.reviews_for_app(package)
            if review.timestamp > install_time
        ]


def build_observations(
    data: StudyData, participants: list[Participant] | None = None
) -> list[DeviceObservation]:
    """Assemble observations for (by default) every participant.

    Resolves Gmail addresses to Google IDs through the ID crawler and
    joins the review store by Google ID, exactly like the paper's
    backend (§5).
    """
    participants = participants if participants is not None else data.participants
    initial_for, slow_for, fast_for, changes_for = _snapshot_getters(data)
    observations: list[DeviceObservation] = []
    for participant in participants:
        install_id = participant.app.install_id
        if install_id is None:
            continue
        obs = DeviceObservation(
            participant=participant,
            install_id=install_id,
            initial=initial_for(install_id),
            slow_runs=slow_for(install_id),
            fast_runs=fast_for(install_id),
            app_changes=changes_for(install_id),
            google_ids=frozenset(),
        )
        # Resolve Gmail -> Google ID through the crawler.
        ids = {
            google_id
            for email in obs.gmail_addresses
            if (google_id := data.id_crawler.lookup(email)) is not None
        }
        obs.google_ids = frozenset(ids)
        # Join reviews by Google ID (the §5 "reviews posted by accounts
        # registered on participant devices" dataset).
        per_app: dict[str, list[Review]] = defaultdict(list)
        all_reviews: list[Review] = []
        # Sorted: per_app's key insertion order (hence device_reviews'
        # key order) must not depend on per-process set/hash ordering.
        for google_id in sorted(ids):
            for review in data.review_store.reviews_by_google_id(google_id):
                per_app[review.app_package].append(review)
                all_reviews.append(review)
        obs.device_reviews = {
            package: sorted(reviews) for package, reviews in per_app.items()
        }
        obs.all_account_reviews = sorted(all_reviews)
        observations.append(obs)
    return observations
