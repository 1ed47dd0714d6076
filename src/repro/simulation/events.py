"""Event vocabulary for device timelines.

The numeric values match the y-axis of the paper's Figure 1 ("type 4":
app installation, "type 3": review posting, "type 2": app placed in the
foreground, with uninstalls below).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["EventType", "DeviceEvent", "ForegroundSession"]


class EventType(enum.IntEnum):
    """On-device interaction event types (Figure 1 y-axis)."""

    STOP = 0
    UNINSTALL = 1
    FOREGROUND = 2
    REVIEW = 3
    INSTALL = 4


@dataclass(frozen=True, slots=True, order=True)
class DeviceEvent:
    """One timestamped interaction with one app on one device."""

    timestamp: float
    event_type: EventType
    package: str


@dataclass(frozen=True, slots=True, order=True)
class ForegroundSession:
    """A contiguous interval during which one app held the foreground.

    Fast snapshots (5 s cadence) sample these intervals; a session of
    ``duration`` seconds yields ``duration / 5`` foreground snapshots
    naming ``package``.
    """

    start: float
    end: float
    package: str

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"session ends before it starts: {self}")
