"""§6.1 participant engagement (Figure 4) and Figure 1 timelines."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.observations import DeviceObservation
from ..simulation.events import EventType
from .common import GroupComparison, compare_feature

__all__ = ["EngagementPoint", "EngagementResult", "compute_engagement", "app_timeline"]


@dataclass(frozen=True)
class EngagementPoint:
    """One dot of the Figure 4 scatterplot."""

    install_id: str
    is_worker: bool
    snapshots_per_day: float
    active_days: int


@dataclass
class EngagementResult:
    """Figure 4: snapshots/day vs active days, plus the §6.1 summaries."""

    points: list[EngagementPoint]
    comparison: GroupComparison
    devices_over_100_per_day: int


def compute_engagement(observations: list[DeviceObservation]) -> EngagementResult:
    """Snapshots-per-day engagement over all observed devices."""
    points = [
        EngagementPoint(
            install_id=obs.install_id,
            is_worker=obs.is_worker,
            snapshots_per_day=obs.snapshots_per_day,
            active_days=obs.active_days,
        )
        for obs in observations
    ]
    worker = [p.snapshots_per_day for p in points if p.is_worker]
    regular = [p.snapshots_per_day for p in points if not p.is_worker]
    return EngagementResult(
        points=points,
        comparison=compare_feature("snapshots_per_day", worker, regular),
        devices_over_100_per_day=sum(1 for p in points if p.snapshots_per_day >= 100),
    )


def app_timeline(obs: DeviceObservation, package: str) -> list[tuple[float, int]]:
    """Figure-1-style (timestamp, event-type) series for one app on one
    device, reconstructed from *collected* data: install/uninstall from
    app-change events, foreground from fast runs, reviews from the
    device-account review join."""
    events: list[tuple[float, int]] = []
    for change in obs.app_changes:
        if change["package"] != package:
            continue
        event_type = (
            EventType.INSTALL if change["action"] == "install" else EventType.UNINSTALL
        )
        events.append((change["timestamp"], int(event_type)))
    if package in obs.initial_packages:
        install_time = obs.install_times.get(package)
        if install_time is not None:
            events.append((install_time, int(EventType.INSTALL)))
    for run in obs.fast_runs:
        if run["foreground"] == package:
            events.append((run["start"], int(EventType.FOREGROUND)))
    for review in obs.reviews_for_app(package):
        events.append((review.timestamp, int(EventType.REVIEW)))
    return sorted(events)
