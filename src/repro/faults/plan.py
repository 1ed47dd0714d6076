"""Seeded fault plans for the device → transport → server → store path.

A :class:`FaultPlan` names one :class:`FaultSpec` per injection site.
Each spec carries a firing probability and an optional day window, and
every firing decision is drawn from an *injected* seeded
``numpy.random.Generator`` (statan DET001: no fallback Generators).
Fault randomness always comes from dedicated streams derived from the
study seed — never from the behaviour stream — so switching plans
changes *when* data arrives (retries, redeliveries, backoff) but never
*what* the simulated world contains.  That separation is what lets the
chaos harness assert ``study_digest`` byte-equality between a clean run
and an arbitrarily hostile plan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "FAULT_STREAM_BACKOFF",
    "FAULT_STREAM_SERVER",
    "FAULT_STREAM_TRANSPORT",
    "FaultPlan",
    "FaultSpec",
]

#: Stream tags mixed into ``default_rng([seed, TAG])`` so each fault
#: consumer draws from its own seeded stream, independent of the
#: behaviour stream and of each other.
FAULT_STREAM_TRANSPORT = 0xFA017
FAULT_STREAM_BACKOFF = 0xBAC0FF
FAULT_STREAM_SERVER = 0x5E4FE4


@dataclass(frozen=True)
class FaultSpec:
    """One injection site: firing probability plus an optional day window.

    ``days=None`` means the site is armed on every study day;
    ``days=(1, 2)`` schedules e.g. an overload window.  A probability of
    ``1.0`` fires without consuming a draw, so scheduled deterministic
    faults do not shift the fault stream for other sites.
    """

    probability: float = 0.0
    days: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.days is not None:
            object.__setattr__(self, "days", tuple(int(d) for d in self.days))

    @property
    def enabled(self) -> bool:
        return self.probability > 0.0

    def active_on(self, day: int) -> bool:
        return self.days is None or day in self.days

    def fires(self, rng: np.random.Generator, day: int) -> bool:
        """One seeded firing decision for ``day``.

        The Generator is required: a hidden fallback would correlate
        every site and break cross-plan byte-identity (DET001 — the
        statan injection gate pins this signature).
        """
        if rng is None:
            raise ValueError("FaultSpec.fires requires an explicit rng")
        if not self.enabled or not self.active_on(day):
            return False
        if self.probability >= 1.0:
            return True
        return float(rng.random()) < self.probability


@dataclass(frozen=True)
class FaultPlan:
    """Per-site fault specs for one study run (all sites default off).

    Client-observed sites (drawn on the transport stream):

    * ``transport_loss`` — the chunk vanishes in transit; no ack.
    * ``transport_corruption`` — damaged bytes reach the server, which
      counts a malformed chunk and acks the wrong hash.
    * ``ack_loss`` — the server durably stores the chunk but the ack is
      lost on the way back: the classic duplicate-delivery fault the
      dedup window absorbs.

    Server sites (drawn on the server stream):

    * ``receive_crash`` — the server dies mid-chunk after inserting a
      prefix of the records; atomic commit rolls the prefix back.
    * ``store_reject`` — the document store refuses the write.
    * ``overload`` — 429 windows; the client's circuit breaker honours
      ``overload_retry_after_s``.

    ``retry_budget`` bounds client attempts per chunk before
    dead-lettering (0 = unlimited); ``dedup_window`` sizes the server's
    idempotent-receive memory.
    """

    transport_loss: FaultSpec = FaultSpec()
    transport_corruption: FaultSpec = FaultSpec()
    ack_loss: FaultSpec = FaultSpec()
    receive_crash: FaultSpec = FaultSpec()
    store_reject: FaultSpec = FaultSpec()
    overload: FaultSpec = FaultSpec()
    overload_retry_after_s: float = 900.0
    retry_budget: int = 64
    dedup_window: int = 4096

    def __post_init__(self) -> None:
        if self.overload_retry_after_s <= 0:
            raise ValueError("overload_retry_after_s must be positive")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.dedup_window < 1:
            raise ValueError("dedup_window must be >= 1")

    def _sites(self) -> list[tuple[str, FaultSpec]]:
        return [
            (spec_field.name, getattr(self, spec_field.name))
            for spec_field in fields(self)
            if spec_field.type == "FaultSpec"
        ]

    def describe(self) -> str:
        """Compact one-line summary, e.g. ``loss=0.2 ack_loss=0.25``."""
        parts = []
        for name, spec in self._sites():
            if not spec.enabled:
                continue
            label = f"{name}={spec.probability:g}"
            if spec.days is not None:
                label += f"@days{spec.days}"
            parts.append(label)
        return " ".join(parts) if parts else "clean"
