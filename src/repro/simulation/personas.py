"""Behavioural personas: regular users, organic workers, dedicated workers.

§2 of the paper distinguishes (a) *professional/dedicated* workers whose
devices exist only for promotion, and (b) *organic* workers who "blend
product promotion with personal activities".  §8.2 finds 123/178 worker
devices show organic-indicative behaviour and 55/178 are promotion-only.

Each persona is a bag of distribution parameters; every ``sample_*``
method draws one device-level or event-level quantity.  Parameter values
are chosen so the simulated cohort reproduces the §6 statistics recorded
in :mod:`repro.simulation.calibration` (see the integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PersonaKind", "Persona", "regular_user", "organic_worker", "dedicated_worker"]


PersonaKind = str  # "regular" | "organic_worker" | "dedicated_worker"

#: Non-Gmail services regular users register (Fig 5 center/right: regular
#: devices average ~6 account types, mostly social networks).
REGULAR_SERVICES = (
    "com.facebook.auth.login", "com.whatsapp", "org.telegram.messenger",
    "com.twitter.android.auth.login", "com.instagram.android",
    "com.skype.contacts.sync", "com.viber.voip", "com.dropbox.android",
    "com.linkedin.android", "com.snapchat.android", "com.spotify.music",
    "com.microsoft.office.outlook", "com.yahoo.mobile.client.share.sync",
    "com.samsung.android.mobileservice", "com.pinterest", "com.reddit.account",
    "com.discord", "com.paypal.android",
)

#: Services workers register: ASO-work oriented (Fig 5: "accounts mainly
#: for Google services and other services useful for ASO work").
WORKER_SERVICES = (
    "com.dualspace.daemon", "com.freelancer", "com.whatsapp",
    "com.facebook.auth.login", "org.telegram.messenger", "com.paypal.android",
    "com.lbe.parallel.intl", "com.excelliance.multiaccount",
)


@dataclass(frozen=True)
class Persona:
    """Distribution parameters for one participant archetype."""

    kind: PersonaKind
    is_worker: bool

    # -- accounts (§6.2) --------------------------------------------------
    gmail_log_median: float  # median of the lognormal Gmail-account count
    gmail_log_sigma: float
    gmail_max: int
    service_pool: tuple[str, ...]
    n_services_mean: float
    n_services_max: int

    # -- installed apps (§6.3) -------------------------------------------
    initial_user_apps_mean: float
    initial_user_apps_sd: float
    #: A minority of devices in both cohorts are "app hoarders" with a
    #: heavy extra-install tail — this inflates within-group variance so
    #: that, as in the paper, ANOVA on installed-app counts does NOT
    #: reject while the review-based contrasts do (Fig 6 left).
    hoarder_prob: float
    hoarder_extra_median: float
    third_party_apps_mean: float

    # -- churn (§6.3, Fig 9): daily install/uninstall events --------------
    daily_installs_log_median: float
    daily_installs_log_sigma: float
    daily_uninstall_ratio: float  # uninstalls ~ ratio * installs

    # -- usage (Fig 10): foreground sessions ------------------------------
    sessions_per_day_mean: float
    apps_used_per_day_mean: float
    session_minutes_mean: float

    # -- reviews (Figs 6, 7) ----------------------------------------------
    historical_reviews_log_median: float  # total past reviews per device
    historical_reviews_log_sigma: float
    review_prob_per_promo_install: float
    review_prob_per_personal_install: float
    fast_review_fraction: float       # reviews posted within a day of install
    review_delay_log_median_days: float
    review_delay_log_sigma: float

    # -- stopped apps (Fig 8) ----------------------------------------------
    stopped_apps_log_median: float
    stopped_apps_log_sigma: float

    # -- promotion workload -------------------------------------------------
    campaigns_per_day_mean: float  # promo installs per day (workers only)
    #: Fraction of the device's historical user installs that were
    #: promotion jobs (drives Fig 6-center and the Fig 15 split).
    initial_promo_fraction: float
    #: Probability the owner opens an app shortly after installing it
    #: (regular users install to use; workers often never open promos,
    #: which is §6.3's stopped-apps mechanism).
    open_after_install_prob: float

    # -- hygiene -------------------------------------------------------------
    dangerous_permission_grant_prob: float
    av_app_prob: float

    # ---------------------------------------------------------------------
    def sample_gmail_accounts(self, rng: np.random.Generator) -> int:
        value = rng.lognormal(np.log(self.gmail_log_median), self.gmail_log_sigma)
        return int(np.clip(round(value), 1, self.gmail_max))

    def sample_services(self, rng: np.random.Generator) -> tuple[str, ...]:
        n = int(np.clip(rng.poisson(self.n_services_mean), 0, self.n_services_max))
        n = min(n, len(self.service_pool))
        if n == 0:
            return ()
        return tuple(sorted(rng.choice(self.service_pool, size=n, replace=False)))

    def sample_initial_app_mix(self, rng: np.random.Generator) -> tuple[int, int]:
        """(base installs, hoarder extra).  The hoarder tail is a
        *personal-use* trait: promotion load scales with the base only,
        so a hoarding worker looks more organic, not more promotional."""
        base = int(max(3, rng.normal(self.initial_user_apps_mean, self.initial_user_apps_sd)))
        extra = 0
        if self.hoarder_prob > 0 and rng.random() < self.hoarder_prob:
            extra = int(rng.lognormal(np.log(self.hoarder_extra_median), 0.6))
        return base, extra

    def sample_third_party_apps(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.third_party_apps_mean))

    def sample_daily_installs(self, rng: np.random.Generator) -> int:
        value = rng.lognormal(
            np.log(self.daily_installs_log_median), self.daily_installs_log_sigma
        )
        return int(round(value))

    def sample_daily_uninstalls(self, rng: np.random.Generator, installs: int) -> int:
        return int(rng.binomial(max(installs, 0), min(self.daily_uninstall_ratio, 1.0)))

    def sample_sessions(self, rng: np.random.Generator) -> int:
        return max(0, int(rng.poisson(self.sessions_per_day_mean)))

    def sample_apps_in_session(self, rng: np.random.Generator) -> int:
        per_session = max(1.0, self.apps_used_per_day_mean / max(self.sessions_per_day_mean, 1.0))
        return max(1, int(rng.poisson(per_session)))

    def sample_session_minutes(self, rng: np.random.Generator) -> float:
        return float(max(0.5, rng.exponential(self.session_minutes_mean)))

    def sample_historical_reviews(self, rng: np.random.Generator) -> int:
        if self.historical_reviews_log_median <= 0:
            return 0
        value = rng.lognormal(
            np.log(self.historical_reviews_log_median), self.historical_reviews_log_sigma
        )
        return int(round(value))

    def sample_review_delay_days(self, rng: np.random.Generator) -> float:
        """Install-to-review delay (Fig 7): a fast-review point mass for
        workers plus a lognormal tail for everyone."""
        if rng.random() < self.fast_review_fraction:
            return float(rng.uniform(0.01, 1.0))
        return float(
            rng.lognormal(np.log(self.review_delay_log_median_days), self.review_delay_log_sigma)
        )

    def sample_stopped_apps(self, rng: np.random.Generator) -> int:
        if self.stopped_apps_log_median <= 0:
            return int(rng.random() < 0.3)
        value = rng.lognormal(
            np.log(self.stopped_apps_log_median), self.stopped_apps_log_sigma
        )
        return int(round(value))

    def sample_promo_installs(self, rng: np.random.Generator) -> int:
        if self.campaigns_per_day_mean <= 0:
            return 0
        return int(rng.poisson(self.campaigns_per_day_mean))


def regular_user() -> Persona:
    """Instagram-recruited regular Android user (§4)."""
    return Persona(
        kind="regular",
        is_worker=False,
        # Fig 5: regular Gmail median 2, SD 1.66, max 10.
        gmail_log_median=2.0,
        gmail_log_sigma=0.55,
        gmail_max=10,
        service_pool=REGULAR_SERVICES,
        n_services_mean=5.0,
        n_services_max=19,
        # Fig 6: ~65 installed apps incl. 14 preinstalled.
        initial_user_apps_mean=38.0,
        initial_user_apps_sd=16.0,
        hoarder_prob=0.06,
        hoarder_extra_median=230.0,
        third_party_apps_mean=0.4,
        # Fig 9: regular daily installs mean 3.88, median 2.0.
        daily_installs_log_median=2.0,
        daily_installs_log_sigma=1.05,
        daily_uninstall_ratio=0.85,
        sessions_per_day_mean=11.0,
        apps_used_per_day_mean=9.0,
        session_minutes_mean=7.0,
        # Fig 6 right: mean 1.91 total reviews, max 36.
        historical_reviews_log_median=1.0,
        historical_reviews_log_sigma=1.0,
        review_prob_per_promo_install=0.0,
        review_prob_per_personal_install=0.015,
        # Fig 7: only 4/35 regular reviews within a day; median wait 21.9 d.
        fast_review_fraction=0.1,
        review_delay_log_median_days=21.92,
        review_delay_log_sigma=1.8,
        stopped_apps_log_median=0.0,
        stopped_apps_log_sigma=0.0,
        campaigns_per_day_mean=0.0,
        initial_promo_fraction=0.0,
        open_after_install_prob=0.88,
        dangerous_permission_grant_prob=0.72,
        av_app_prob=0.05,
    )


def organic_worker(intensity: float = 1.0) -> Persona:
    """ASO worker using a personal device: personal usage plus a modest
    stream of promotion jobs (the detection-evading archetype).

    ``intensity`` scales the promotion workload: low-intensity organic
    workers (novices, §8.2) hide very little ASO work among everyday
    activity and are the hardest devices to detect.
    """
    intensity = max(0.05, float(intensity))
    return Persona(
        kind="organic_worker",
        is_worker=True,
        # Organic devices pull the worker Gmail median down toward ~15-20.
        gmail_log_median=max(2.5, 16.0 * intensity**0.7),
        gmail_log_sigma=0.75,
        gmail_max=120,
        service_pool=WORKER_SERVICES + REGULAR_SERVICES[:6],
        n_services_mean=4.0,
        n_services_max=12,
        initial_user_apps_mean=34.0,
        initial_user_apps_sd=16.0,
        hoarder_prob=0.10,
        hoarder_extra_median=230.0,
        third_party_apps_mean=1.2,
        # Worker churn: overall mean 15.94/day, median 6.41 — organic
        # devices sit at the lower end.
        daily_installs_log_median=2.8,
        daily_installs_log_sigma=1.25,
        daily_uninstall_ratio=0.65,
        sessions_per_day_mean=10.0,
        apps_used_per_day_mean=9.0,
        session_minutes_mean=6.0,
        # Historical review volume: organic share of mean ~209/device.
        historical_reviews_log_median=max(2.0, 60.0 * intensity),
        historical_reviews_log_sigma=1.35,
        review_prob_per_promo_install=0.90,
        review_prob_per_personal_install=0.01,
        # Fig 7: 33% of worker reviews within one day; median 5 days.
        fast_review_fraction=0.28,
        review_delay_log_median_days=8.5,
        review_delay_log_sigma=1.05,
        stopped_apps_log_median=max(1.0, 6.0 * intensity),
        stopped_apps_log_sigma=1.0,
        campaigns_per_day_mean=2.5 * intensity,
        initial_promo_fraction=min(0.85, 0.45 * intensity**0.6),
        open_after_install_prob=0.55,
        dangerous_permission_grant_prob=0.93,
        av_app_prob=0.03,
    )


def dedicated_worker() -> Persona:
    """Professional worker device used exclusively for promotion (§8.2:
    55/178 devices; median 31 Gmail accounts, 23 stopped apps)."""
    return Persona(
        kind="dedicated_worker",
        is_worker=True,
        gmail_log_median=31.0,
        gmail_log_sigma=0.72,
        gmail_max=163,
        service_pool=WORKER_SERVICES,
        n_services_mean=2.5,
        n_services_max=8,
        initial_user_apps_mean=42.0,
        initial_user_apps_sd=20.0,
        hoarder_prob=0.10,
        hoarder_extra_median=230.0,
        third_party_apps_mean=2.0,
        daily_installs_log_median=1.6,
        daily_installs_log_sigma=0.9,
        daily_uninstall_ratio=0.55,
        # Promotion-only devices barely use apps for personal purposes.
        sessions_per_day_mean=4.0,
        apps_used_per_day_mean=5.0,
        session_minutes_mean=2.0,
        historical_reviews_log_median=220.0,
        historical_reviews_log_sigma=1.1,
        review_prob_per_promo_install=0.95,
        review_prob_per_personal_install=0.0,
        fast_review_fraction=0.34,
        review_delay_log_median_days=8.0,
        review_delay_log_sigma=1.0,
        # Fig 8 / §8.2: median 23 stopped apps, mean 66 (heavy tail).
        stopped_apps_log_median=23.0,
        stopped_apps_log_sigma=1.15,
        campaigns_per_day_mean=13.0,
        initial_promo_fraction=1.0,
        open_after_install_prob=0.12,
        dangerous_permission_grant_prob=0.97,
        av_app_prob=0.02,
    )
