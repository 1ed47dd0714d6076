"""Google Play Store substrate: catalog, permissions, search rank,
reviews and the two crawlers (review crawler, Google-ID crawler)."""

from .catalog import CATEGORIES, PREINSTALLED_PACKAGES, App, Catalog
from .google_id import GmailDirectory, GoogleIdCrawler
from .permissions import (
    DANGEROUS_PERMISSIONS,
    NORMAL_PERMISSIONS,
    RACKETSTORE_INSTALL_PERMISSIONS,
    RACKETSTORE_RUNTIME_PERMISSIONS,
    PermissionProfile,
    sample_permission_profile,
)
from .rank import RankedApp, RankWeights, SearchRankModel
from .rank_tracker import RankSample, RankTracker
from .ratings import RatingAggregator, RatingUpdate
from .reviews import CrawlStats, Review, ReviewCrawler, ReviewStore

__all__ = [
    "CATEGORIES",
    "PREINSTALLED_PACKAGES",
    "App",
    "Catalog",
    "GmailDirectory",
    "GoogleIdCrawler",
    "DANGEROUS_PERMISSIONS",
    "NORMAL_PERMISSIONS",
    "RACKETSTORE_INSTALL_PERMISSIONS",
    "RACKETSTORE_RUNTIME_PERMISSIONS",
    "PermissionProfile",
    "sample_permission_profile",
    "RankedApp",
    "RankSample",
    "RankTracker",
    "RankWeights",
    "RatingAggregator",
    "RatingUpdate",
    "SearchRankModel",
    "CrawlStats",
    "Review",
    "ReviewCrawler",
    "ReviewStore",
]
