"""World driver: build the ecosystem, enroll the cohort, run the study.

This is the top-level substitute for the paper's deployment: it creates
the Play Store catalog, the ASO campaign board, the Gmail directory and
VirusTotal panel, enrolls worker and regular participant devices, runs
the study day by day — each device generating behaviour and its
RacketStore install reporting snapshots to the backend — and returns a
:class:`StudyData` handle exposing everything the §6-§8 analyses need.

Each study day runs through the two-phase engine (DESIGN.md §12):
phase 1 simulates every active device against frozen start-of-day
state — fanned out over device shards via :mod:`repro.parallel` when
``n_jobs`` (or ``$REPRO_N_JOBS``) asks for workers — and phase 2
commits the devices' action logs in deterministic ``(device_id, seq)``
order, advances rank tracking, and runs the crawler rounds.  The
resulting :class:`StudyData` is byte-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..faults.plan import FAULT_STREAM_SERVER, FaultPlan
from ..faults.server import FaultableServer
from ..parallel import draw_seeds, parallel_map, resolve_n_jobs
from ..platform.mobile_app import RacketStoreApp
from ..platform.store import DocumentStore
from ..playstore.catalog import Catalog
from ..playstore.google_id import GmailDirectory, GoogleIdCrawler
from ..playstore.rank import SearchRankModel
from ..playstore.rank_tracker import RankTracker
from ..playstore.reviews import ReviewCrawler, ReviewStore
from ..virustotal.client import VirusTotalClient
from ..virustotal.engines import EnginePanel
from .accounts import AccountFactory
from .behavior import BehaviorEngine
from .calibration import DATASET, SUSPICIOUSNESS
from .campaigns import CampaignBoard
from .clock import SECONDS_PER_DAY
from .config import SimulationConfig
from .device import SimDevice
from .personas import Persona, dedicated_worker, organic_worker, regular_user
from .phases import DeviceDayTask, build_day_params, commit_day, run_day_shard
from .recruitment import sample_country

__all__ = ["Participant", "StudyData", "build_world", "run_study"]


@dataclass
class Participant:
    """One enrolled device: its simulated owner and RacketStore install."""

    device: SimDevice
    persona: Persona
    app: RacketStoreApp
    participant_id: str
    enrolled_day: int
    active_days: int

    @property
    def is_worker(self) -> bool:
        return self.persona.is_worker

    @property
    def is_dropout(self) -> bool:
        return self.active_days < 2

    def active_on(self, day: int) -> bool:
        return self.enrolled_day <= day < self.enrolled_day + self.active_days


@dataclass
class StudyData:
    """Everything the analyses consume after a study run."""

    config: SimulationConfig
    catalog: Catalog
    review_store: ReviewStore
    review_crawler: ReviewCrawler
    gmail_directory: GmailDirectory
    id_crawler: GoogleIdCrawler
    vt_client: VirusTotalClient
    board: CampaignBoard
    server: FaultableServer
    rank_model: SearchRankModel
    participants: list[Participant] = field(default_factory=list)
    #: Daily keyword-rank series for every advertised package, advanced
    #: by the phase-2 commit (None until the study loop starts).
    rank_tracker: RankTracker | None = None

    # -- cohort views ----------------------------------------------------
    def eligible_participants(self, min_days: int = 2) -> list[Participant]:
        """Devices with >= ``min_days`` of snapshots (§7.2/§8.2 filter)."""
        return [p for p in self.participants if p.active_days >= min_days]


def _malware_oracle_factory(catalog: Catalog):
    """apk hash -> is-malware ground truth, as the VT panel's oracle."""
    lookup = {
        h: app.is_malware for app in catalog.all_apps() for h in app.apk_hashes
    }

    def oracle(apk_hash: str) -> bool:
        return lookup.get(apk_hash, False)

    return oracle


def build_world(config: SimulationConfig | None = None) -> tuple[StudyData, BehaviorEngine, AccountFactory, np.random.Generator]:
    """Construct (but do not run) the full ecosystem."""
    config = config or SimulationConfig()
    rng = np.random.default_rng(config.seed)

    catalog = Catalog(rng)
    for _ in range(config.n_popular_apps):
        catalog.add_popular_app()
    promoted = [catalog.add_promoted_app() for _ in range(config.n_promoted_apps)]
    for _ in range(config.n_third_party_apps):
        catalog.add_third_party_app()
    for _ in range(config.n_antivirus_apps):
        catalog.add_antivirus_app()

    board = CampaignBoard(rng)
    for app in promoted:
        board.post_campaign(app)

    review_store = ReviewStore()
    review_crawler = ReviewCrawler(
        review_store, first_crawl_cap=DATASET.FIRST_CRAWL_CAP
    )
    directory = GmailDirectory()
    id_crawler = GoogleIdCrawler(directory)
    panel = EnginePanel(np.random.default_rng(config.seed + 1))
    vt_client = VirusTotalClient(
        panel,
        _malware_oracle_factory(catalog),
        availability=DATASET.HASHES_WITH_VT_REPORT / DATASET.DISTINCT_APK_HASHES,
    )

    # Server-side fault draws come from a dedicated per-study stream
    # (never the world rng), consumed in deterministic phase-2 commit
    # order — so injections are identical at any n_jobs and the world
    # realization matches the clean run byte for byte.  Without a plan
    # no site fires and no draw is made.
    server = FaultableServer(
        DocumentStore(),
        review_crawler=review_crawler,
        plan=config.fault_plan or FaultPlan(),
        rng=np.random.default_rng([config.seed, FAULT_STREAM_SERVER]),
    )
    engine = BehaviorEngine(config, catalog, review_store, board, rng)
    factory = AccountFactory(directory, rng)

    data = StudyData(
        config=config,
        catalog=catalog,
        review_store=review_store,
        review_crawler=review_crawler,
        gmail_directory=directory,
        id_crawler=id_crawler,
        vt_client=vt_client,
        board=board,
        server=server,
        rank_model=SearchRankModel(catalog),
    )
    return data, engine, factory, rng


def _enroll(
    data: StudyData,
    engine: BehaviorEngine,
    factory: AccountFactory,
    rng: np.random.Generator,
    persona: Persona,
    active_days: int,
    enrolled_day: int = 0,
    device: SimDevice | None = None,
) -> Participant:
    """Enroll a participant; pass ``device`` to model a *repeat install*
    on an already-set-up device (Appendix A: workers reinstalling under
    a new participant identity to collect the install payment again)."""
    config = data.config
    if device is None:
        device = SimDevice(
            persona_kind=persona.kind,
            is_worker=persona.is_worker,
            rng=rng,
            android_id_missing=bool(rng.random() < 0.05),
        )
        device.country = sample_country(rng, persona.is_worker)
        engine.setup_device(device, persona, factory)

    participant_id = data.server.issue_participant_id()
    # Stream-compatibility draw: this seed fed the app-bound transport
    # before the phase split (transports now live inside the day phases
    # and draw loss from the per-day device rng).  Consuming it keeps
    # the world rng stream — and with it every paper-calibrated
    # realization downstream — byte-identical to the calibrated seed.
    rng.integers(2**31)
    # Every sign-in/collect/uninstall call runs in phase 1 against a
    # per-day rng and a recording uplink whose chunks replay at commit
    # time; the app itself holds neither.
    app = RacketStoreApp(
        device=device,
        participant_id=participant_id,
        rng=np.random.default_rng(rng.integers(2**31)),
        # Permission grant rates reproduce the partial-reporting cohort
        # sizes of Figs 5/6 (not every device reports accounts/usage).
        grant_usage_stats=bool(rng.random() < config.grant_usage_stats_prob),
        grant_get_accounts=bool(rng.random() < config.grant_get_accounts_prob),
    )
    # Sign-in (and the initial snapshot) happens on the enrollment day
    # inside the study loop, so repeat installs capture the device state
    # *at that time* — required for Appendix-A app-set fingerprints and
    # for install/uninstall deltas to be consistent.
    participant = Participant(
        device=device,
        persona=persona,
        app=app,
        participant_id=participant_id,
        enrolled_day=enrolled_day,
        active_days=active_days,
    )
    data.participants.append(participant)
    return participant


def run_study(
    config: SimulationConfig | None = None, n_jobs: int | None = None
) -> StudyData:
    """Build the world, enroll the cohort, simulate every study day.

    ``n_jobs`` fans the device-local phase of each day out over worker
    processes (``None`` defers to ``$REPRO_N_JOBS``, ``<= 0`` means all
    cores); the returned :class:`StudyData` is byte-identical at any
    worker count.
    """
    config = config or SimulationConfig()
    with obs.trace("simulate"):
        data = _run_study_traced(config, n_jobs)
    # The load is complete: run the tuple-mover so analytical reads
    # start from settled, read-optimized columns.
    data.server.store.compact()
    return data


def _run_study_traced(
    config: SimulationConfig, n_jobs: int | None = None
) -> StudyData:
    with obs.trace("simulate.build_world"):
        data, engine, factory, rng = build_world(config)

    with obs.trace("simulate.enroll"):
        _enroll_cohort(data, engine, factory, rng)

    # Rank tracking (§2): every advertised package is followed for its
    # title's lead keyword; the phase-2 commit advances the series.
    data.rank_tracker = RankTracker(data.catalog, data.rank_model)
    for package in sorted(data.board.advertised_packages()):
        keyword = data.catalog.get(package).title.split()[0].lower()
        data.rank_tracker.track(package, keyword)

    params = build_day_params(engine)
    resolved_jobs = resolve_n_jobs(n_jobs)

    # Metric handles resolved once, outside the day loop: re-resolving
    # with help= on every device-day was measurable registry overhead.
    track_events = obs.metrics_enabled()
    if track_events:
        event_counters = {
            kind: obs.counter(
                "sim_events_total",
                {"persona": kind},
                help="device events generated per persona",
            )
            for kind in sorted({p.persona.kind for p in data.participants})
        }
        device_days_counter = obs.counter("sim_device_days_total")
        days_counter = obs.counter("sim_days_total")

    # -- study days ------------------------------------------------------
    with obs.trace("simulate.days"):
        for day in range(config.study_days):
            day_start = day * SECONDS_PER_DAY
            with obs.trace("simulate.day"):
                # Start-of-day reconciliation: chunks whose commit
                # failed on an earlier day are redelivered before
                # anything else happens today.
                data.server.set_day(day)
                data.server.redeliver_pending()
                # Phase 1 (device-local): one task and one pre-drawn seed
                # per active device-day, in participant order — the
                # historical RNG order the seeds contract requires.
                active = [
                    (index, participant)
                    for index, participant in enumerate(data.participants)
                    if participant.active_on(day)
                ]
                seeds = draw_seeds(rng, len(active))
                tasks = [
                    DeviceDayTask(
                        index=index,
                        device=participant.device.day_view(day_start),
                        app_state=participant.app.snapshot_state(),
                        persona=participant.persona,
                        favorites=engine.favorites_for(participant.device.device_id),
                        pending=engine.pending_for(participant.device.device_id),
                        reviewed=engine.reviewed_mirror(participant.device),
                        needs_sign_in=participant.app.install_id is None,
                        final_day=day
                        == participant.enrolled_day + participant.active_days - 1,
                    )
                    for index, participant in active
                ]
                with obs.trace("simulate.phase1"):
                    results = _fan_out_day(
                        day_start, tasks, seeds, data.board.freeze(), params, resolved_jobs
                    )

                # Fold device-local deltas back (submission order).
                for result in results:
                    participant = data.participants[result.index]
                    participant.device.absorb_day(result.device)
                    participant.app.adopt_state(result.app_state)
                    engine.set_pending(result.device_id, result.pending)
                    engine.set_reviewed_mirror(result.device_id, result.reviewed)
                    if track_events:
                        event_counters[participant.persona.kind].inc(
                            len(result.device.events)
                        )
                        device_days_counter.inc()

                # Phase 2 (global commit) in (device_id, seq) order, then
                # rank tracking over the committed delivery totals.
                with obs.trace("simulate.commit"):
                    commit_day(
                        results,
                        board=data.board,
                        review_store=data.review_store,
                        server=data.server,
                    )
                    if day == config.study_days - 1:
                        # Study close: deliver every still-parked chunk with
                        # injection off *before* the final crawl rounds, so
                        # late-tracked apps still get their first crawl and
                        # the crawled corpus matches the clean run.
                        data.server.drain_redelivery()
                with obs.trace("simulate.rank"):
                    data.rank_tracker.record_day(day, boosts=_promo_boosts(data.board))
                # §5: the review crawler runs every 12 hours.
                data.review_crawler.crawl_round()
                data.review_crawler.crawl_round()
            if track_events:
                days_counter.inc()

    return data


def _fan_out_day(
    day_start: float,
    tasks: list[DeviceDayTask],
    seeds: list[int],
    frozen_board,
    params,
    n_jobs: int,
) -> list:
    """Run phase 1 over contiguous device shards; order-stable results.

    Shard boundaries cannot affect the outcome — each device-day is a
    pure function of its (task, seed, frozen board, params) — so the
    flattened submission-order list is identical at any worker count.
    """
    if not tasks:
        return []
    n_shards = max(1, min(n_jobs, len(tasks)))
    base, extra = divmod(len(tasks), n_shards)
    shard_args = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        shard_args.append(
            (
                day_start,
                tuple(tasks[start : start + size]),
                tuple(seeds[start : start + size]),
                frozen_board,
                params,
            )
        )
        start += size
    shards = parallel_map(run_day_shard, shard_args, n_jobs=n_jobs)
    return [result for shard in shards for result in shard]


def _promo_boosts(board: CampaignBoard) -> dict[str, tuple[int, int]]:
    """Cumulative (installs, reviews) delivered per promoted package."""
    boosts: dict[str, tuple[int, int]] = {}
    for campaign in board.campaigns():
        installs, reviews = boosts.get(campaign.app_package, (0, 0))
        boosts[campaign.app_package] = (
            installs + campaign.delivered_installs,
            reviews + campaign.delivered_reviews,
        )
    return boosts


def _enroll_cohort(
    data: StudyData,
    engine: BehaviorEngine,
    factory: AccountFactory,
    rng: np.random.Generator,
) -> None:
    """Enroll workers, regulars, dropouts, and Appendix-A repeat installs."""
    config = data.config
    n_organic = int(round(config.n_worker_devices * SUSPICIOUSNESS.ORGANIC_FRACTION))
    # Organic workers span a wide intensity range — from novices hiding a
    # trickle of ASO work to heavy moonlighters (§8.2's Fig 15 continuum).
    worker_personas = [
        organic_worker(intensity=float(np.clip(rng.lognormal(0.0, 0.65), 0.08, 3.0)))
        for _ in range(n_organic)
    ] + [dedicated_worker()] * (config.n_worker_devices - n_organic)
    for persona in worker_personas:
        _enroll(
            data, engine, factory, rng, persona,
            active_days=int(rng.integers(2, config.study_days + 1)) if rng.random() < 0.35 else config.study_days,
        )
    for _ in range(config.n_regular_devices):
        _enroll(
            data, engine, factory, rng, regular_user(),
            active_days=int(rng.integers(2, config.study_days + 1)) if rng.random() < 0.35 else config.study_days,
        )
    # Dropouts: devices that keep RacketStore for under two days and get
    # filtered out of the classifier cohorts (§7.2).
    for i in range(config.n_dropout_devices):
        persona = organic_worker() if i % 2 == 0 else regular_user()
        _enroll(data, engine, factory, rng, persona, active_days=1)

    # Repeat installs (Appendix A): some workers uninstall and reinstall
    # under a fresh participant identity to collect the $1 install
    # payment twice.  The snapshot-fingerprinting procedure must coalesce
    # these install pairs back into single devices.
    n_repeat = max(2, config.n_worker_devices // 25)
    repeaters = [
        p
        for p in data.participants
        if p.is_worker and not p.is_dropout
        and p.enrolled_day + p.active_days + 2 <= config.study_days
    ]
    if len(repeaters) < n_repeat:
        # Not enough naturally short stays: truncate a few full-stay
        # workers so their device frees up for the repeat install.
        repeater_ids = {p.participant_id for p in repeaters}
        for participant in data.participants:
            if len(repeaters) >= n_repeat:
                break
            if (
                participant.is_worker
                and participant.participant_id not in repeater_ids
                and participant.active_days >= 4
                and participant.enrolled_day == 0
            ):
                participant.active_days = max(2, config.study_days - 3)
                if participant.enrolled_day + participant.active_days + 2 <= config.study_days:
                    repeaters.append(participant)
                    repeater_ids.add(participant.participant_id)
    rng.shuffle(repeaters)
    for original in repeaters[:n_repeat]:
        # Short repeat installs: they earn the bounty, get coalesced by
        # Appendix A, and (being < 2 days) stay out of the classifier
        # cohorts, like the paper's filtered repeat installs.
        _enroll(
            data,
            engine,
            factory,
            rng,
            original.persona,
            active_days=1,
            enrolled_day=original.enrolled_day + original.active_days + 1,
            device=original.device,
        )
