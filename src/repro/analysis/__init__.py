"""§6 measurement analyses, one module per figure topic, all computed
from collected platform data (snapshots, crawled reviews, VT reports)."""

from .accounts import AccountsResult, compute_accounts
from .app_permissions import PermissionPoint, PermissionsResult, compute_app_permissions
from .churn import ChurnPoint, ChurnResult, compute_churn
from .common import GroupComparison, compare_feature
from .daily_use import DailyUsePoint, DailyUseResult, compute_daily_use
from .engagement import EngagementPoint, EngagementResult, app_timeline, compute_engagement
from .install_review import InstallReviewResult, compute_install_to_review
from .installed_apps import InstalledAppsResult, compute_installed_apps
from .malware import MalwareResult, MalwareSample, compute_malware
from .stopped_apps import StoppedAppsResult, compute_stopped_apps

__all__ = [
    "AccountsResult",
    "compute_accounts",
    "PermissionPoint",
    "PermissionsResult",
    "compute_app_permissions",
    "ChurnPoint",
    "ChurnResult",
    "compute_churn",
    "GroupComparison",
    "compare_feature",
    "DailyUsePoint",
    "DailyUseResult",
    "compute_daily_use",
    "EngagementPoint",
    "EngagementResult",
    "app_timeline",
    "compute_engagement",
    "InstallReviewResult",
    "compute_install_to_review",
    "InstalledAppsResult",
    "compute_installed_apps",
    "MalwareResult",
    "MalwareSample",
    "compute_malware",
    "StoppedAppsResult",
    "compute_stopped_apps",
]
