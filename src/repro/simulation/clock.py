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
]

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0


def days(n: float) -> float:
    """n days in seconds."""
    return n * SECONDS_PER_DAY


def hours(n: float) -> float:
    return n * SECONDS_PER_HOUR
