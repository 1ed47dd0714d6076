"""Rank tracking: daily keyword-rank time series during campaigns.

§2 motivates ASO with the search-rank payoff ("developers need to
achieve top-5 rank in keyword searches").  The tracker records an app's
rank for a keyword day by day as installs/reviews/rating evolve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Catalog
from .rank import SearchRankModel

__all__ = ["RankSample", "RankTracker"]


@dataclass(frozen=True)
class RankSample:
    """One (day, rank) observation for one (app, keyword) pair."""

    day: int
    rank: int
    install_count: int
    review_count: int
    rating: float


class RankTracker:
    """Daily rank recorder over the live catalog state."""

    def __init__(self, catalog: Catalog, model: SearchRankModel | None = None) -> None:
        self._catalog = catalog
        self._model = model or SearchRankModel(catalog)
        self._series: dict[tuple[str, str], list[RankSample]] = {}

    def track(self, package: str, keyword: str) -> None:
        """Start (idempotently) tracking an (app, keyword) pair."""
        self._series.setdefault((package, keyword), [])

    def tracked(self) -> list[tuple[str, str]]:
        return sorted(self._series)

    def record_day(
        self, day: int, boosts: dict[str, tuple[int, int]] | None = None
    ) -> None:
        """Sample the rank of every tracked pair for one day.

        ``boosts`` overlays per-package (delivered installs, delivered
        reviews) on the static catalog counts — how the phase-2 commit
        advances ranks from the day's ASO deliveries without mutating
        the catalog (DESIGN.md §12).  Ranks are computed in one batch
        pass per keyword (:meth:`SearchRankModel.ranks_for`).
        """
        pairs = [
            (package, keyword)
            for (package, keyword) in self._series
            if package in self._catalog
        ]
        ranks = self._model.ranks_for(pairs, boosts=boosts)
        boosts = boosts or {}
        for package, keyword in pairs:
            app = self._catalog.get(package)
            extra_installs, extra_reviews = boosts.get(package, (0, 0))
            self._series[(package, keyword)].append(
                RankSample(
                    day=day,
                    rank=ranks[(package, keyword)],
                    install_count=app.install_count + extra_installs,
                    review_count=app.review_count + extra_reviews,
                    rating=app.aggregate_rating,
                )
            )

    def series(self, package: str, keyword: str) -> list[RankSample]:
        return list(self._series.get((package, keyword), ()))
