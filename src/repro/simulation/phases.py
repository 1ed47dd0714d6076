"""Two-phase day engine: device-local simulation, global commit.

The day loop used to interleave every device's behaviour with writes to
the shared Play Store and backend state.  This module splits one study
day into:

* **Phase 1 (device-local)** — each active device reads a *frozen
  start-of-day view* of the global state (campaign board, its own
  review footprint) and produces (a) its device history for the day,
  (b) its RacketStore uploads, and (c) an :class:`ActionLog` of
  intended global effects — review posts, campaign deliveries, install
  registrations and chunk uploads — instead of mutating ``playstore``
  or ``platform`` objects directly.  Phase 1 is a pure function of the
  task payload and one pre-drawn integer seed, so it fans out over
  device shards via :mod:`repro.parallel` with byte-identical results
  at any worker count (DESIGN.md §8 and §12).
* **Phase 2 (global commit)** — the parent applies every shard's
  action log in deterministic sorted order ``(device_id, seq)``, then
  rank tracking advances and the review crawler runs its rounds.

Consistency model: a device never observes another device's *same-day*
actions (campaign take counts, review posts).  Within one device the
view is kept coherent by a local overlay (:class:`ShardBoardView`, the
per-device review mirror).  Cross-device effects land at commit time;
campaign delivery counts are clamped to their targets there, so
same-day overshoot costs the client nothing (the board never pays out
more than the campaign bought).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..faults.errors import FaultInjected
from ..faults.plan import (
    FAULT_STREAM_BACKOFF,
    FAULT_STREAM_TRANSPORT,
    FaultPlan,
)
from ..faults.transport import FaultyTransport
from ..platform.buffer import chunk_hash
from ..platform.mobile_app import AppState, RacketStoreApp
from ..platform.transport import LossyTransport
from ..playstore.catalog import App
from .behavior import PendingReview, review_rating
from .campaigns import CampaignBoard, FrozenBoard, PromoJob
from .clock import SECONDS_PER_DAY, hours
from .device import SimDevice
from .draws import cumulative, weighted_index
from .personas import Persona

__all__ = [
    "ReviewPost",
    "PromoDelivery",
    "InstallRegistration",
    "ChunkUpload",
    "ActionLog",
    "RecordingUplink",
    "ShardBoardView",
    "DayParams",
    "DeviceDayTask",
    "DeviceDayResult",
    "DeviceDayRunner",
    "build_day_params",
    "run_day_shard",
    "commit_day",
]

#: Per-chunk loss probability of the default (no fault plan) device ->
#: server channel (§3 "resilient communications": the buffer retries
#: until the hash acknowledgement matches).
TRANSPORT_LOSS_PROBABILITY = 0.02

#: Attempts a client makes per chunk under a fault plan before the chunk
#: is dead-lettered (the legacy channel retries until the ack matches).
RETRY_BUDGET = 64


# ---------------------------------------------------------------------------
# Actions: the globally visible effects a device intends.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReviewPost:
    """Post (or replace) one Play review from one device account."""

    seq: int
    package: str
    google_id: str
    rating: int
    timestamp: float


@dataclass(frozen=True, slots=True)
class PromoDelivery:
    """One campaign job taken: an install (and maybe a review) owed."""

    seq: int
    campaign_id: int
    wants_review: bool


@dataclass(frozen=True, slots=True)
class InstallRegistration:
    """RacketStore sign-in: register the freshly minted install ID."""

    seq: int
    participant_id: str
    install_id: str
    android_id: str | None
    timestamp: float


@dataclass(frozen=True, slots=True)
class ChunkUpload:
    """One delivered buffer chunk bound for the collection server."""

    seq: int
    kind: str
    data: bytes


Action = ReviewPost | PromoDelivery | InstallRegistration | ChunkUpload


class ActionLog:
    """Ordered per-device intent log; ``seq`` is the commit tiebreaker."""

    __slots__ = ("actions",)

    def __init__(self) -> None:
        self.actions: list[Action] = []

    def _next_seq(self) -> int:
        return len(self.actions)

    def post_review(
        self, package: str, google_id: str, rating: int, timestamp: float
    ) -> None:
        self.actions.append(
            ReviewPost(self._next_seq(), package, google_id, rating, timestamp)
        )

    def promo_delivery(self, campaign_id: int, wants_review: bool) -> None:
        self.actions.append(
            PromoDelivery(self._next_seq(), campaign_id, wants_review)
        )

    def register_install(
        self,
        participant_id: str,
        install_id: str,
        android_id: str | None,
        timestamp: float,
    ) -> None:
        self.actions.append(
            InstallRegistration(
                self._next_seq(), participant_id, install_id, android_id, timestamp
            )
        )

    def upload_chunk(self, kind: str, data: bytes) -> None:
        self.actions.append(ChunkUpload(self._next_seq(), kind, data))


class RecordingUplink:
    """Phase-1 stand-in for the backend server.

    Exposes the same surface the mobile app talks to — participant
    validation, install registration, ``receive_chunk`` — but records
    the effects into an :class:`ActionLog` instead of touching the real
    server.  ``receive_chunk`` acknowledges with the hash of the bytes
    it received, exactly like :meth:`RacketStoreServer.receive_chunk`,
    so the buffer's hash-verified retry loop behaves identically
    (chunks dropped or corrupted by the transport are retried, recorded
    only when the ack matches).
    """

    __slots__ = ("_log",)

    def __init__(self, log: ActionLog) -> None:
        self._log = log

    def is_valid_participant(self, participant_id: str) -> bool:
        # Participant IDs reaching phase 1 were issued by the real
        # server at enrollment; validation re-happens implicitly when
        # the registration replays at commit.
        return True

    def register_install(
        self,
        participant_id: str,
        install_id: str,
        android_id: str | None,
        timestamp: float,
    ) -> None:
        self._log.register_install(participant_id, install_id, android_id, timestamp)

    def receive_chunk(self, kind: str, data: bytes) -> str:
        self._log.upload_chunk(kind, data)
        return chunk_hash(data)


# ---------------------------------------------------------------------------
# Frozen views and per-device overlays.
# ---------------------------------------------------------------------------

class ShardBoardView:
    """Device-local view over a :class:`FrozenBoard`.

    Job selection is weighted most-remaining-first (random tie-breaking
    spreads installs across devices) against the start-of-day remaining
    counts, with a local overlay so one device's own takes reduce what
    it sees.  Other devices' same-day takes are invisible by design —
    the frozen-view consistency model (module docstring).
    """

    __slots__ = ("_campaigns", "_taken_installs", "_taken_reviews")

    def __init__(self, board: FrozenBoard) -> None:
        self._campaigns = board.campaigns
        self._taken_installs: dict[int, int] = {}
        self._taken_reviews: dict[int, int] = {}

    def next_job(
        self, rng: np.random.Generator, exclude_packages: set[str] | None = None
    ) -> PromoJob | None:
        exclude = exclude_packages or set()
        open_campaigns = [
            (c, c.installs_remaining - self._taken_installs.get(c.campaign_id, 0))
            for c in self._campaigns
        ]
        open_campaigns = [
            (c, remaining)
            for c, remaining in open_campaigns
            if remaining > 0 and c.app_package not in exclude
        ]
        if not open_campaigns:
            return None
        weights = np.array([r for _c, r in open_campaigns], dtype=float)
        chosen, _rem = open_campaigns[
            weighted_index(rng, cumulative(weights / weights.sum()))
        ]
        cid = chosen.campaign_id
        self._taken_installs[cid] = self._taken_installs.get(cid, 0) + 1
        wants_review = (
            chosen.reviews_remaining - self._taken_reviews.get(cid, 0) > 0
        )
        if wants_review:
            self._taken_reviews[cid] = self._taken_reviews.get(cid, 0) + 1
        return PromoJob(
            campaign_id=cid,
            app_package=chosen.app_package,
            wants_review=wants_review,
            min_rating=chosen.min_rating,
            retention_days=chosen.retention_days,
        )


@dataclass(frozen=True)
class DayParams:
    """Study-static inputs every device-day needs (shipped per shard)."""

    popular: tuple[App, ...]
    #: CDF of the popular pool's Zipf install weights (``draws.cumulative``).
    popular_cdf: tuple[float, ...]
    promoted: dict[str, App]
    review_volume_multiplier: float
    review_delay_multiplier: float
    #: Optional seeded fault plan; ``None`` keeps the legacy lossy
    #: channel driven by the behaviour rng.
    fault_plan: FaultPlan | None = None


def build_day_params(engine) -> DayParams:
    """Snapshot the behaviour engine's static pools for phase-1 workers."""
    config = engine.config
    return DayParams(
        popular=tuple(engine.popular_apps()),
        popular_cdf=cumulative(engine.popular_weights()),
        promoted={
            package: engine.catalog.get(package)
            for package in engine.promoted_packages()
        },
        review_volume_multiplier=config.worker_review_volume_multiplier,
        review_delay_multiplier=config.worker_review_delay_multiplier,
        fault_plan=config.fault_plan,
    )


# ---------------------------------------------------------------------------
# Task / result payloads.
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DeviceDayTask:
    """Everything one device-day needs besides its seed."""

    index: int  # position in StudyData.participants
    device: SimDevice  # start-of-day view (SimDevice.day_view)
    app_state: AppState
    persona: Persona
    favorites: tuple[str, ...]
    pending: tuple[PendingReview, ...]
    reviewed: dict[str, set[str]]  # google_id -> packages reviewed
    needs_sign_in: bool
    final_day: bool


@dataclass(slots=True)
class DeviceDayResult:
    """Phase-1 output: day-local state deltas plus the action log."""

    index: int
    device_id: str
    device: SimDevice
    app_state: AppState
    pending: tuple[PendingReview, ...]
    reviewed: dict[str, set[str]]
    actions: tuple[Action, ...]


# ---------------------------------------------------------------------------
# Phase 1: the device-local day runner.
# ---------------------------------------------------------------------------

class DeviceDayRunner:
    """One device's behaviour for one day against frozen global state.

    This is the former ``BehaviorEngine._run_*`` family with every
    shared-state touch redirected: campaign jobs come from the
    :class:`ShardBoardView`, review dedup consults the device's own
    review mirror (Google accounts are device-owned, so the check is
    device-local), and review posts land in the :class:`ActionLog`.
    """

    def __init__(
        self,
        params: DayParams,
        board: ShardBoardView,
        rng: np.random.Generator,
        log: ActionLog,
        reviewed: dict[str, set[str]],
    ) -> None:
        self._params = params
        self._board = board
        self._rng = rng
        self._log = log
        self._reviewed = reviewed

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _waking_time(day_start: float) -> tuple[float, float]:
        """Waking interval: 7am - midnight local time."""
        return day_start + hours(7), day_start + hours(24)

    def _has_reviewed(self, google_id: str, package: str) -> bool:
        return package in self._reviewed.get(google_id, ())

    def _mark_reviewed(self, google_id: str, package: str) -> None:
        self._reviewed.setdefault(google_id, set()).add(package)

    # -- entry point -------------------------------------------------------
    def simulate_day(
        self,
        device: SimDevice,
        persona: Persona,
        day_start: float,
        favorites: tuple[str, ...],
        pending: list[PendingReview],
    ) -> None:
        """Advance one study day for one device (phase 1 only)."""
        self._run_sessions(device, persona, day_start, favorites)
        promo_installs = (
            self._run_promotion(device, persona, day_start, pending)
            if persona.is_worker
            else 0
        )
        self._run_churn(device, persona, day_start, pending, promo_installs)
        self._post_due_reviews(device, day_start + SECONDS_PER_DAY, pending)

    # -- ported day phases -------------------------------------------------
    def _run_sessions(
        self,
        device: SimDevice,
        persona: Persona,
        day_start: float,
        favorites: tuple[str, ...],
    ) -> None:
        rng = self._rng
        wake_start, wake_end = self._waking_time(day_start)
        for _ in range(persona.sample_sessions(rng)):
            session_start = float(rng.uniform(wake_start, wake_end - 60.0))
            t = session_start
            for _ in range(persona.sample_apps_in_session(rng)):
                if favorites and rng.random() < 0.8:
                    package = favorites[int(rng.integers(0, len(favorites)))]
                else:
                    candidates = list(device.installed)
                    package = candidates[int(rng.integers(0, len(candidates)))]
                if package not in device.installed:
                    continue
                duration = persona.sample_session_minutes(rng) * 60.0
                device.open_app(package, t, duration)
                t += duration + float(rng.uniform(1.0, 20.0))

    def _run_churn(
        self,
        device: SimDevice,
        persona: Persona,
        day_start: float,
        pending: list[PendingReview],
        promo_installs: int = 0,
    ) -> None:
        """Personal install/uninstall churn (Fig 9).  Uninstall volume
        tracks *total* install volume (promo installs included)."""
        rng = self._rng
        popular = self._params.popular
        wake_start, wake_end = self._waking_time(day_start)
        n_installs = persona.sample_daily_installs(rng)
        for _ in range(n_installs):
            # Retry a few draws: the owner picks something they do not
            # already have (avoids undercounting churn on small catalogs).
            app = None
            for _attempt in range(6):
                candidate = popular[weighted_index(rng, self._params.popular_cdf)]
                if candidate.package not in device.installed:
                    app = candidate
                    break
            if app is None:
                continue
            timestamp = float(rng.uniform(wake_start, wake_end))
            device.install(
                app,
                timestamp=timestamp,
                grant_probability=persona.dangerous_permission_grant_prob,
                rng=rng,
            )
            if rng.random() < persona.open_after_install_prob:
                # The owner tries the app right away (clears its
                # Android stopped state).
                device.open_app(
                    app.package,
                    timestamp + 30.0,
                    persona.sample_session_minutes(rng) * 60.0,
                )
            if rng.random() < persona.review_prob_per_personal_install:
                delay_days = persona.sample_review_delay_days(rng)
                heapq.heappush(
                    pending,
                    PendingReview(
                        due=timestamp + delay_days * SECONDS_PER_DAY,
                        package=app.package,
                        min_rating=1,
                    ),
                )

        n_uninstalls = persona.sample_daily_uninstalls(rng, n_installs + promo_installs)
        removable = [
            rec.package
            for rec in device.user_installed()
            if rec.retention_until < day_start or not rec.promo_install
        ]
        rng.shuffle(removable)
        for package in removable[:n_uninstalls]:
            # An app installed earlier the same day must be uninstalled
            # *after* its install event (the delta stream is ordered).
            earliest = max(
                wake_start, device.installed[package].install_time + 120.0
            )
            if earliest >= wake_end:
                continue
            device.uninstall(package, float(rng.uniform(earliest, wake_end)))

    def _run_promotion(
        self,
        device: SimDevice,
        persona: Persona,
        day_start: float,
        pending: list[PendingReview],
    ) -> int:
        """Pull jobs from the frozen board view: install, schedule the
        paid review, sometimes stop the app afterwards (§6.3).  Returns
        the number of promo installs performed."""
        rng = self._rng
        params = self._params
        wake_start, wake_end = self._waking_time(day_start)

        # Retention checks: clients demand proof the app stays installed
        # and gets used, so workers briefly open a couple of promoted
        # apps most days (§6.3 retention installs).
        promos = device.promo_installed()
        if promos:
            for _ in range(int(rng.integers(0, 3))):
                record = promos[int(rng.integers(0, len(promos)))]
                device.open_app(
                    record.package,
                    float(rng.uniform(wake_start, wake_end - 300.0)),
                    float(rng.uniform(30.0, 240.0)),
                )

        installs_done = 0
        for _ in range(persona.sample_promo_installs(rng)):
            job = self._board.next_job(rng, exclude_packages=device.installed_packages())
            if job is None:
                return installs_done
            self._log.promo_delivery(job.campaign_id, job.wants_review)
            timestamp = float(rng.uniform(wake_start, wake_end))
            device.install(
                params.promoted[job.app_package],
                timestamp=timestamp,
                grant_probability=persona.dangerous_permission_grant_prob,
                rng=rng,
                promo=True,
                retention_days=job.retention_days,
            )
            installs_done += 1
            if rng.random() < persona.open_after_install_prob:
                device.open_app(job.app_package, timestamp + 30.0, 90.0)
            if job.wants_review and rng.random() < (
                persona.review_prob_per_promo_install
                * params.review_volume_multiplier
            ):
                delay_days = (
                    persona.sample_review_delay_days(rng)
                    * params.review_delay_multiplier
                )
                heapq.heappush(
                    pending,
                    PendingReview(
                        due=timestamp + delay_days * SECONDS_PER_DAY,
                        package=job.app_package,
                        min_rating=job.min_rating,
                        stop_after=bool(rng.random() < 0.35),
                    ),
                )
        return installs_done

    def _post_due_reviews(
        self, device: SimDevice, until: float, pending: list[PendingReview]
    ) -> None:
        """Post every scheduled review whose time has come, from a device
        account that has not reviewed that app yet (one review per
        account per app — the Play Store rule)."""
        rng = self._rng
        while pending and pending[0].due <= until:
            item = heapq.heappop(pending)
            if item.package not in device.installed:
                continue  # app uninstalled before the review came due
            gmail = device.gmail_accounts()
            fresh = [
                a for a in gmail if not self._has_reviewed(a.google_id, item.package)
            ]
            if not fresh:
                continue
            account = fresh[int(rng.integers(0, len(fresh)))]
            rating = max(item.min_rating, review_rating(rng, item.min_rating >= 4))
            self._log.post_review(item.package, account.google_id, rating, item.due)
            self._mark_reviewed(account.google_id, item.package)
            device.record_review_event(item.package, item.due)
            if item.stop_after:
                device.stop_app(item.package, item.due + 60.0)


# ---------------------------------------------------------------------------
# The shard worker (module-level and picklable — PAR001) whose only
# randomness comes from the pre-drawn integer seeds (PAR002).
# ---------------------------------------------------------------------------

def run_day_shard(
    day_start: float,
    tasks: tuple[DeviceDayTask, ...],
    seeds: tuple[int, ...],
    board: FrozenBoard,
    params: DayParams,
) -> tuple[DeviceDayResult, ...]:
    """Run phase 1 for one shard of device-days.

    One ``default_rng(seed)`` per device-day drives, in order: the
    sign-in install-ID mint, behaviour sampling, snapshot coverage
    windows, and transport loss — the whole day is a pure function of
    ``(task, seed, board, params)``.
    """
    results = []
    for task, seed in zip(tasks, seeds):
        results.append(_run_device_day(float(day_start), task, int(seed), board, params))
    return tuple(results)


def _run_device_day(
    day_start: float,
    task: DeviceDayTask,
    seed: int,
    board: FrozenBoard,
    params: DayParams,
) -> DeviceDayResult:
    rng = np.random.default_rng(seed)
    log = ActionLog()
    uplink = RecordingUplink(log)
    plan = params.fault_plan
    if plan is None:
        transport = LossyTransport(
            uplink, rng=rng, loss_probability=TRANSPORT_LOSS_PROBABILITY
        )
        backoff_rng = None
    else:
        # Fault and backoff draws come from dedicated per-seed streams,
        # never the behaviour rng: the plan must only move *when* chunks
        # arrive, not change what the simulated day contains.
        transport = FaultyTransport(
            uplink,
            plan=plan,
            rng=np.random.default_rng([seed, FAULT_STREAM_TRANSPORT]),
            day=int(day_start // SECONDS_PER_DAY),
        )
        backoff_rng = np.random.default_rng([seed, FAULT_STREAM_BACKOFF])
    device = task.device
    app = RacketStoreApp.from_state(device, task.app_state)
    if plan is not None:
        app.buffer.retry_budget = RETRY_BUDGET
    if task.needs_sign_in:
        app.sign_in(
            day_start,
            rng=rng,
            server=uplink,
            transport=transport,
            backoff_rng=backoff_rng,
        )
    pending = list(task.pending)
    runner = DeviceDayRunner(params, ShardBoardView(board), rng, log, task.reviewed)
    runner.simulate_day(device, task.persona, day_start, task.favorites, pending)
    app.collect_day(
        day_start, rng=rng, transport=transport, backoff_rng=backoff_rng
    )
    if task.final_day:
        app.uninstall(
            day_start + SECONDS_PER_DAY,
            transport=transport,
            backoff_rng=backoff_rng,
        )
        if plan is not None:
            # Study-close reconciliation for this install: dead letters
            # replay and the channel heals, so every sealed chunk
            # reaches the uplink log — faults delay deliveries, they
            # never erase them.
            app.buffer.requeue_dead_letters()
            transport.heal()
            app.buffer.drain(
                transport,
                now=day_start + SECONDS_PER_DAY,
                deadline=day_start + 2 * SECONDS_PER_DAY,
                rng=backoff_rng,
            )
    return DeviceDayResult(
        index=task.index,
        device_id=device.device_id,
        device=device,
        app_state=app.snapshot_state(),
        pending=tuple(pending),
        reviewed=task.reviewed,
        actions=tuple(log.actions),
    )


# ---------------------------------------------------------------------------
# Phase 2: the global commit.
# ---------------------------------------------------------------------------

def commit_day(
    results: list[DeviceDayResult],
    *,
    board: CampaignBoard,
    review_store,
    server,
) -> None:
    """Apply every device's action log in ``(device_id, seq)`` order.

    Replaying the same logs onto an identical world snapshot produces
    an identical post-commit world: review posts are keyed upserts,
    registrations and chunk uploads append in replay order, and
    campaign deliveries are clamped to their targets (overshoot from
    the frozen-view model is absorbed here, never paid out twice).
    """
    for result in sorted(results, key=lambda r: r.device_id):
        for action in result.actions:
            if isinstance(action, ChunkUpload):
                try:
                    server.receive_chunk(action.kind, action.data)
                except FaultInjected:
                    # Injected server failure: no ack exists, so the
                    # chunk parks on the server's redelivery queue and
                    # retries on a later day (dedup makes that safe).
                    server.queue_redelivery(action.kind, action.data)
            elif isinstance(action, ReviewPost):
                review_store.post_review(
                    action.package, action.google_id, action.rating, action.timestamp
                )
            elif isinstance(action, PromoDelivery):
                board.apply_delivery(action.campaign_id, review=action.wants_review)
            elif isinstance(action, InstallRegistration):
                server.register_install(
                    participant_id=action.participant_id,
                    install_id=action.install_id,
                    android_id=action.android_id,
                    timestamp=action.timestamp,
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown action {action!r}")
