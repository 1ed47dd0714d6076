"""§6.3 app churn (Figure 9): daily install and uninstall events."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.observations import DeviceObservation
from .common import GroupComparison, compare_feature

__all__ = ["ChurnPoint", "ChurnResult", "compute_churn"]

#: Figure 9's churn line: 10 app installs a day.
HIGH_CHURN = 10.0


@dataclass(frozen=True)
class ChurnPoint:
    """One device dot of the Figure 9 scatterplot."""

    install_id: str
    is_worker: bool
    daily_installs: float
    daily_uninstalls: float


@dataclass
class ChurnResult:
    """Figure 9 scatter data plus the two significance batteries."""

    points: list[ChurnPoint]
    installs: GroupComparison
    uninstalls: GroupComparison

    def high_churn_devices(self) -> dict[str, int]:
        """Devices above the :data:`HIGH_CHURN` line the paper draws."""
        worker = sum(
            1 for p in self.points if p.is_worker and p.daily_installs > HIGH_CHURN
        )
        regular = sum(
            1 for p in self.points if not p.is_worker and p.daily_installs > HIGH_CHURN
        )
        return {"worker": worker, "regular": regular}


def compute_churn(observations: list[DeviceObservation]) -> ChurnResult:
    points = [
        ChurnPoint(
            install_id=obs.install_id,
            is_worker=obs.is_worker,
            daily_installs=obs.daily_installs,
            daily_uninstalls=obs.daily_uninstalls,
        )
        for obs in observations
    ]
    worker = [p for p in points if p.is_worker]
    regular = [p for p in points if not p.is_worker]
    return ChurnResult(
        points=points,
        installs=compare_feature(
            "daily_installs",
            [p.daily_installs for p in worker],
            [p.daily_installs for p in regular],
        ),
        uninstalls=compare_feature(
            "daily_uninstalls",
            [p.daily_uninstalls for p in worker],
            [p.daily_uninstalls for p in regular],
        ),
    )
