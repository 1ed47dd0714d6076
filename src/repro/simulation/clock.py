"""Simulated wall-clock time.

The simulation runs in continuous seconds from an epoch corresponding to
the study start (the paper's data spans October 2019 - April 2020).
History (pre-study app installs and reviews) lives at negative offsets.
"""

from __future__ import annotations

__all__ = [
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "days",
    "hours",
    "minutes",
    "day_index",
    "SimClock",
]

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0


def days(n: float) -> float:
    """n days in seconds."""
    return n * SECONDS_PER_DAY


def hours(n: float) -> float:
    return n * SECONDS_PER_HOUR


def minutes(n: float) -> float:
    return n * 60.0


def day_index(timestamp: float) -> int:
    """Calendar day containing ``timestamp`` (day 0 starts at t=0)."""
    return int(timestamp // SECONDS_PER_DAY)


class SimClock:
    """A monotonically advancing simulation clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now

    @property
    def day(self) -> int:
        return day_index(self._now)
