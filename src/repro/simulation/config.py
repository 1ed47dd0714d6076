"""Simulation configuration: cohort sizes, durations and scale factors.

The default configuration is a scaled-down cohort that preserves the
paper's per-device and per-app statistics while running in seconds.
``SimulationConfig.paper_scale()`` restores the full 803-device cohort
(580 worker / 223 regular) for long runs.

Values the paper fixes are not knobs here.  Its numbers live in
:mod:`repro.simulation.calibration`: the §8.2 organic-worker share
(``SUSPICIOUSNESS.ORGANIC_FRACTION``), the §7.2 popularity bar and
holdout fractions (``APP_CLASSIFIER``), the §6.4 VirusTotal coverage and
the first-crawl cap (``DATASET``).  The §3 snapshot cadences are
``RacketStoreApp.FAST_PERIOD_S``/``SLOW_PERIOD_S`` and the §3 buffer
thresholds are ``buffer.THRESHOLD_BYTES``.  Modelling choices the study
runs at one value are constants beside their one reader: the device
history and the popular pool's Zipf exponent in ``behavior.py``, and the
legacy channel's loss rate and a fault plan's retry budget in
``phases.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.plan import FaultPlan

__all__ = ["SimulationConfig", "DEFAULT_SEED"]

DEFAULT_SEED = 20211102  # IMC '21 started November 2, 2021.


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one end-to-end study simulation."""

    seed: int = DEFAULT_SEED

    # Cohort composition.  The paper's classifier cohort is 178 worker +
    # 88 regular devices with >= 2 days of snapshots; extra devices model
    # dropouts that report too little data and get filtered out (§7.2).
    n_worker_devices: int = 178
    n_regular_devices: int = 88
    n_dropout_devices: int = 24

    # Study timeline.
    study_days: int = 10

    # Catalog composition.  The popular pool is large with Zipf-weighted
    # installation so a long tail of popular-but-niche apps exists —
    # required for the §7.2 "never installed on a worker device" label
    # to select a non-empty regular app set, as it does against the real
    # multi-million-app Play catalog.
    n_popular_apps: int = 2000
    n_promoted_apps: int = 170
    n_third_party_apps: int = 30
    n_antivirus_apps: int = 25

    # Runtime-permission grant rates (§3: participants may deny either
    # permission; the defaults reproduce the paper's partial-reporting
    # cohort sizes, e.g. only 145 regular + 390 worker devices reported
    # account data for Fig 5).
    grant_usage_stats_prob: float = 0.96
    grant_get_accounts_prob: float = 0.80

    # Evasion study knobs (§9): multipliers on worker devices' install-
    # to-review delay and on the number of reviews they post.
    worker_review_delay_multiplier: float = 1.0
    worker_review_volume_multiplier: float = 1.0

    #: Optional seeded fault-injection plan
    #: (:class:`repro.faults.FaultPlan`).  Every study's server is a
    #: ``FaultableServer`` running this plan, or the clean
    #: ``FaultPlan()`` (no injection, no draws) when it is ``None``.
    #: ``None`` — the default — picks only the client channel: the
    #: paper-calibrated legacy ``LossyTransport`` (loss only, drawn
    #: from the behaviour rng).  A plan routes uploads through
    #: ``FaultyTransport`` with dedicated seeded fault streams; the
    #: chaos harness asserts that every plan, the clean ``FaultPlan()``
    #: included, yields the same study digest.  The default channel is
    #: *not* digest-identical to a plan run: its loss draws consume the
    #: behaviour rng, so the simulated days themselves differ.
    fault_plan: "FaultPlan | None" = None

    def scaled(self, **overrides) -> "SimulationConfig":
        """Copy with overrides (frozen-dataclass convenience)."""
        return replace(self, **overrides)

    @classmethod
    def small(cls) -> "SimulationConfig":
        """Tiny cohort for unit tests (sub-second)."""
        return cls(
            n_worker_devices=24,
            n_regular_devices=14,
            n_dropout_devices=4,
            study_days=6,
            n_popular_apps=500,
            n_promoted_apps=40,
            n_third_party_apps=8,
            n_antivirus_apps=6,
        )

    @classmethod
    def paper_scale(cls) -> "SimulationConfig":
        """Full 803-device cohort (slow; for the headline benchmarks)."""
        return cls(
            n_worker_devices=580,
            n_regular_devices=223,
            n_dropout_devices=140,
            n_popular_apps=4000,
            n_promoted_apps=420,
            n_third_party_apps=60,
            n_antivirus_apps=40,
        )

    @property
    def total_devices(self) -> int:
        return self.n_worker_devices + self.n_regular_devices + self.n_dropout_devices
