"""Behaviour engine: pre-study device state and per-device study state.

* :meth:`BehaviorEngine.setup_device` builds the *pre-study* state —
  registered accounts, installed apps with historical install times,
  stopped apps, and the review history of every account (§6.2/§6.3 all
  measure state that mostly predates the RacketStore install).
* Study days are advanced by the phase-split engine in
  :mod:`repro.simulation.phases` (foreground sessions, app churn,
  promotion jobs, scheduled review postings with persona-calibrated
  install-to-review delays — Figure 7).  The engine's role during the
  study is bookkeeping: it owns each device's pending-review heap,
  favorite-app list, and per-account review mirror that the phase-1
  tasks ship out and the commit folds back.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..playstore.catalog import App, Catalog
from ..playstore.reviews import ReviewStore
from .calibration import APP_CLASSIFIER
from .campaigns import CampaignBoard
from .clock import SECONDS_PER_DAY
from .config import SimulationConfig
from .device import SimDevice
from .draws import cumulative, weighted_index
from .personas import Persona

__all__ = ["BehaviorEngine", "PendingReview", "review_rating"]

#: Days of device history generated before RacketStore is installed
#: (install times, past reviews); affects install-to-review joins.
HISTORY_DAYS = 720

#: Zipf exponent of installation weight over the popular pool's ranks.
ZIPF_EXPONENT = 1.2


#: Star ratings and their probabilities: promo reviews are 4-5 stars,
#: organic ratings span the scale.
PROMO_STARS = (4, 5)
PROMO_STAR_P = (0.2, 0.8)
ORGANIC_STARS = (1, 2, 3, 4, 5)
ORGANIC_STAR_P = (0.07, 0.06, 0.12, 0.3, 0.45)
_PROMO_STAR_CDF = cumulative(PROMO_STAR_P)
_ORGANIC_STAR_CDF = cumulative(ORGANIC_STAR_P)


def review_rating(rng: np.random.Generator, promo: bool) -> int:
    """One review's star rating (:data:`PROMO_STARS` for a promo review)."""
    if promo:
        return PROMO_STARS[weighted_index(rng, _PROMO_STAR_CDF)]
    return ORGANIC_STARS[weighted_index(rng, _ORGANIC_STAR_CDF)]


@dataclass(order=True, slots=True)
class PendingReview:
    """A review scheduled for the future (heap-ordered by due time)."""

    due: float
    package: str = field(compare=False)
    min_rating: int = field(compare=False)
    stop_after: bool = field(compare=False, default=False)


class BehaviorEngine:
    """Generates device histories against the shared world state."""

    def __init__(
        self,
        config: SimulationConfig,
        catalog: Catalog,
        review_store: ReviewStore,
        board: CampaignBoard,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.catalog = catalog
        self.review_store = review_store
        self.board = board
        self.rng = rng

        apps = catalog.all_apps()
        self._popular = [a for a in apps if a.on_play_store and not a.preinstalled
                         and not a.is_antivirus
                         and a.review_count >= APP_CLASSIFIER.MIN_REVIEWS_FOR_REGULAR]
        # Zipf installation weights over the popular pool: everyone
        # concentrates on the head, but the long tail is what lets some
        # popular apps appear only on regular devices (§7.2 labeling).
        ranks = np.arange(1, len(self._popular) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        self._popular_weights = weights / weights.sum()
        self._promoted_pool = sorted(board.advertised_packages())
        self._third_party = [a for a in apps if not a.on_play_store]
        self._av_apps = catalog.antivirus_apps()

        self._pending: dict[str, list[PendingReview]] = {}
        self._favorites: dict[str, list[str]] = {}
        #: Per-device review mirror: google_id -> packages reviewed.
        #: Google accounts are device-owned, so the Play "one live
        #: review per (account, app)" dedup check is device-local and
        #: can run inside a phase-1 shard without the global store.
        self._reviewed: dict[str, dict[str, set[str]]] = {}

    # -- static pools (read by the phase-split day engine) ---------------
    def popular_apps(self) -> list[App]:
        return list(self._popular)

    def popular_weights(self) -> np.ndarray:
        return self._popular_weights

    def promoted_packages(self) -> list[str]:
        return list(self._promoted_pool)

    # -- per-device study state handed to/from phase-1 tasks -------------
    def favorites_for(self, device_id: str) -> tuple[str, ...]:
        return tuple(self._favorites.get(device_id) or ())

    def pending_for(self, device_id: str) -> tuple[PendingReview, ...]:
        """Current pending-review heap, in heap (not sorted) order."""
        return tuple(self._pending.get(device_id, ()))

    def set_pending(self, device_id: str, pending) -> None:
        self._pending[device_id] = list(pending)

    def reviewed_mirror(self, device: SimDevice) -> dict[str, set[str]]:
        """The device's account->reviewed-packages map (built lazily
        from the global store after setup, then maintained by the
        phase-1 runners)."""
        mirror = self._reviewed.get(device.device_id)
        if mirror is None:
            mirror = {
                account.google_id: self.review_store.apps_reviewed_by(
                    account.google_id
                )
                for account in device.gmail_accounts()
            }
            self._reviewed[device.device_id] = mirror
        return mirror

    def set_reviewed_mirror(self, device_id: str, mirror: dict[str, set[str]]) -> None:
        self._reviewed[device_id] = mirror

    # ------------------------------------------------------------------
    # Setup: pre-study history
    # ------------------------------------------------------------------
    def setup_device(self, device: SimDevice, persona: Persona, factory) -> None:
        rng = self.rng
        config = self.config

        for account in factory.accounts_for_persona(persona):
            device.register_account(account)

        # Pre-installed system apps, present since "device purchase".
        for app in self.catalog.preinstalled():
            device.install(
                app,
                timestamp=-HISTORY_DAYS * SECONDS_PER_DAY,
                grant_probability=1.0,
                rng=rng,
                preinstalled=True,
            )

        # Historical user installs: personal apps plus (for workers) promo
        # apps still retained from past campaigns.  Promotion volume
        # scales with the *base* install count; the hoarder tail is all
        # personal use.
        n_base, n_hoard = persona.sample_initial_app_mix(rng)
        n_promo = int(round(n_base * persona.initial_promo_fraction))
        n_personal = n_base - n_promo + n_hoard

        installed_apps: list[tuple[App, bool]] = []
        personal_choices = rng.choice(
            len(self._popular),
            size=min(n_personal, len(self._popular)),
            replace=False,
            p=self._popular_weights,
        )
        installed_apps.extend((self._popular[i], False) for i in personal_choices)
        if n_promo and self._promoted_pool:
            promo_choices = rng.choice(
                len(self._promoted_pool), size=min(n_promo, len(self._promoted_pool)), replace=False
            )
            installed_apps.extend(
                (self.catalog.get(self._promoted_pool[i]), True) for i in promo_choices
            )

        for app, promo in installed_apps:
            install_time = -float(rng.uniform(1.0, HISTORY_DAYS)) * SECONDS_PER_DAY
            device.install(
                app,
                timestamp=install_time,
                grant_probability=persona.dangerous_permission_grant_prob,
                rng=rng,
                promo=promo,
            )

        for _ in range(persona.sample_third_party_apps(rng)):
            if not self._third_party:
                break
            app = self._third_party[int(rng.integers(0, len(self._third_party)))]
            if app.package in device.installed:
                continue
            device.install(
                app,
                timestamp=-float(rng.uniform(1.0, HISTORY_DAYS / 2)) * SECONDS_PER_DAY,
                grant_probability=persona.dangerous_permission_grant_prob,
                rng=rng,
            )

        if self._av_apps and rng.random() < persona.av_app_prob:
            app = self._av_apps[int(rng.integers(0, len(self._av_apps)))]
            device.install(app, timestamp=-float(rng.uniform(1, 200)) * SECONDS_PER_DAY,
                           grant_probability=persona.dangerous_permission_grant_prob, rng=rng)

        self._assign_stopped_state(device, persona)
        self._favorites[device.device_id] = self._pick_favorites(device)
        self._generate_review_history(device, persona)

    def _pick_favorites(self, device: SimDevice) -> list[str]:
        """Apps the owner actually uses day to day (sessions draw from
        these; §8.1 notes even pre-installed app use is discriminative)."""
        rng = self.rng
        personal = [
            rec.package
            for rec in device.installed.values()
            if not rec.promo_install
        ]
        k = min(len(personal), max(4, int(rng.integers(6, 14))))
        if k == 0:
            return []
        chosen = rng.choice(len(personal), size=k, replace=False)
        return [personal[i] for i in chosen]

    def _assign_stopped_state(self, device: SimDevice, persona: Persona) -> None:
        """Mark the persona-appropriate number of apps stopped; promoted
        apps are stopped preferentially (§6.3: workers never open many of
        the apps they install)."""
        rng = self.rng
        target = persona.sample_stopped_apps(rng)
        user_apps = device.user_installed()
        promo_first = sorted(user_apps, key=lambda rec: (not rec.promo_install, rec.package))
        for i, record in enumerate(promo_first):
            record.stopped = i < target
        # Pre-installed apps are never stopped.
        for record in device.installed.values():
            if record.preinstalled:
                record.stopped = False

    def _generate_review_history(self, device: SimDevice, persona: Persona) -> None:
        """Create the pre-study Play-review footprint of the device's
        accounts: reviews for installed apps (the Fig 6-center and Fig 7
        joins) plus reviews for apps no longer installed (Fig 6-right)."""
        rng = self.rng
        gmail = device.gmail_accounts()
        if not gmail:
            return
        config = self.config
        volume_mult = (
            config.worker_review_volume_multiplier if persona.is_worker else 1.0
        )
        delay_mult = (
            config.worker_review_delay_multiplier if persona.is_worker else 1.0
        )

        posted = 0
        # Reviews for currently installed apps.
        for record in device.user_installed():
            if record.promo_install:
                review_probability = persona.review_prob_per_promo_install * volume_mult
                n_accounts = min(1 + int(rng.poisson(1.4)), len(gmail))
            else:
                review_probability = persona.review_prob_per_personal_install
                n_accounts = 1
            if rng.random() >= review_probability:
                continue
            reviewers = rng.choice(len(gmail), size=n_accounts, replace=False)
            for reviewer_index in reviewers:
                account = gmail[int(reviewer_index)]
                delay_days = persona.sample_review_delay_days(rng) * delay_mult
                review_time = record.install_time + delay_days * SECONDS_PER_DAY
                if review_time >= 0.0:
                    # Falls inside the study window: schedule it live.
                    # It still counts toward the device's review output,
                    # otherwise the historical top-up below would refill
                    # the quota and negate evasion delay multipliers.
                    heapq.heappush(
                        self._pending.setdefault(device.device_id, []),
                        PendingReview(
                            due=review_time,
                            package=record.package,
                            min_rating=4 if record.promo_install else 1,
                        ),
                    )
                    posted += 1
                    continue
                self.review_store.post_review(
                    record.package,
                    account.google_id,
                    review_rating(rng, record.promo_install),
                    review_time,
                )
                device.record_review_event(record.package, review_time)
                posted += 1

        # Reviews for apps since uninstalled (past campaigns): these pad
        # the "total reviews from registered accounts" histogram.
        target_total = int(persona.sample_historical_reviews(rng) * volume_mult)
        pool = self._promoted_pool if persona.is_worker else [a.package for a in self._popular]
        # Exclude currently installed apps: these reviews stand for past
        # campaigns whose apps were since uninstalled, so they must not
        # pollute the install-to-review join (Fig 7).
        installed_now = device.installed_packages()
        pool = [package for package in pool if package not in installed_now]
        attempts = 0
        while posted < target_total and pool and attempts < target_total * 3:
            attempts += 1
            account = gmail[int(rng.integers(0, len(gmail)))]
            package = pool[int(rng.integers(0, len(pool)))]
            if self.review_store.has_reviewed(account.google_id, package):
                continue
            review_time = -float(rng.uniform(0.5, HISTORY_DAYS)) * SECONDS_PER_DAY
            self.review_store.post_review(
                package,
                account.google_id,
                review_rating(rng, persona.is_worker),
                review_time,
            )
            posted += 1
