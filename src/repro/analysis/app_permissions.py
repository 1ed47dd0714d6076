"""§6.3 app permissions (Figure 11).

Dangerous vs total permission counts for apps found *exclusively* on
worker or regular devices.  The paper's conclusion: permission profiles
are similar across device types, so permissions alone cannot detect
promoted apps — worker-exclusive apps merely contribute the extreme
dangerous-permission tail.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.observations import DeviceObservation
from ..playstore.catalog import Catalog
from .common import GroupComparison, compare_feature

__all__ = ["PermissionPoint", "PermissionsResult", "compute_app_permissions"]


@dataclass(frozen=True)
class PermissionPoint:
    """One app dot of the Figure 11 scatterplot."""

    package: str
    exclusive_to: str  # "worker" | "regular"
    n_dangerous: int
    n_total: int


@dataclass
class PermissionsResult:
    points: list[PermissionPoint]
    dangerous: GroupComparison
    total: GroupComparison

    def max_dangerous(self) -> dict[str, int]:
        out = {"worker": 0, "regular": 0}
        for p in self.points:
            out[p.exclusive_to] = max(out[p.exclusive_to], p.n_dangerous)
        return out


def compute_app_permissions(
    observations: list[DeviceObservation], catalog: Catalog
) -> PermissionsResult:
    worker_packages: set[str] = set()
    regular_packages: set[str] = set()
    for obs in observations:
        target = worker_packages if obs.is_worker else regular_packages
        target.update(obs.observed_packages)

    points: list[PermissionPoint] = []
    for exclusive_to, packages in (
        ("worker", worker_packages - regular_packages),
        ("regular", regular_packages - worker_packages),
    ):
        for package in sorted(packages):
            if package not in catalog:
                continue
            profile = catalog.get(package).permissions
            points.append(
                PermissionPoint(
                    package=package,
                    exclusive_to=exclusive_to,
                    n_dangerous=profile.n_dangerous,
                    n_total=profile.total,
                )
            )

    worker_points = [p for p in points if p.exclusive_to == "worker"]
    regular_points = [p for p in points if p.exclusive_to == "regular"]
    return PermissionsResult(
        points=points,
        dangerous=compare_feature(
            "dangerous_permissions",
            [p.n_dangerous for p in worker_points],
            [p.n_dangerous for p in regular_points],
        ),
        total=compare_feature(
            "total_permissions",
            [p.n_total for p in worker_points],
            [p.n_total for p in regular_points],
        ),
    )
