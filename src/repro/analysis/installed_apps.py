"""§6.3 installed and reviewed apps (Figure 6).

Three panels: apps installed, apps installed *and* reviewed from device
accounts, and total reviews posted from all registered accounts.  The
paper's signature finding: installed-app counts barely differ (ANOVA
p = 0.301, not significant) while review counts differ dramatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.observations import DeviceObservation
from .common import GroupComparison, compare_feature

__all__ = ["InstalledAppsResult", "compute_installed_apps"]


@dataclass
class InstalledAppsResult:
    """The three panels of Figure 6."""

    installed: GroupComparison
    installed_and_reviewed: GroupComparison
    total_reviews: GroupComparison
    worker_devices_over_1000_reviews: int
    regular_max_total_reviews: float
    reporting_worker_devices: int
    reporting_regular_devices: int

    def installed_anova_not_significant(self) -> bool:
        """The paper's expected pattern: distribution tests reject but
        ANOVA on installed-app counts does not (at the 0.05 level)."""
        return not self.installed.tests.anova.significant()


def compute_installed_apps(observations: list[DeviceObservation]) -> InstalledAppsResult:
    reporting = [o for o in observations if o.initial is not None]
    workers = [o for o in reporting if o.is_worker]
    regulars = [o for o in reporting if not o.is_worker]

    total_reviews = compare_feature(
        "total_reviews_from_accounts",
        [o.total_account_reviews for o in workers],
        [o.total_account_reviews for o in regulars],
    )
    return InstalledAppsResult(
        installed=compare_feature(
            "installed_apps",
            [o.n_installed_apps for o in workers],
            [o.n_installed_apps for o in regulars],
        ),
        installed_and_reviewed=compare_feature(
            "installed_and_reviewed",
            [o.n_installed_and_reviewed for o in workers],
            [o.n_installed_and_reviewed for o in regulars],
        ),
        total_reviews=total_reviews,
        worker_devices_over_1000_reviews=sum(
            1 for o in workers if o.total_account_reviews > 1000
        ),
        regular_max_total_reviews=max(
            (o.total_account_reviews for o in regulars), default=0
        ),
        reporting_worker_devices=len(workers),
        reporting_regular_devices=len(regulars),
    )
