"""Aggregate-rating maintenance: how posted reviews move the star value.

§2: "a 1-star increase in aggregate rating was shown to increase app
store conversion by up to 280%" — the whole point of fake 5-star
reviews.  The aggregator recomputes each app's displayed rating as the
weighted blend of its pre-existing rating mass (the listing's
``review_count`` at catalog creation stands in for historical ratings)
and the live reviews in the store, then writes it back to the catalog
so the search-rank model sees the promotion effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Catalog
from .reviews import ReviewStore

__all__ = ["RatingUpdate", "RatingAggregator"]


@dataclass(frozen=True)
class RatingUpdate:
    """One app's rating change after an aggregation pass."""

    package: str
    before: float
    after: float
    live_reviews: int


class RatingAggregator:
    """Recomputes displayed ratings from live reviews.

    The pre-existing rating is treated as ``baseline_weight`` pseudo-
    reviews at the listing's original aggregate value, so a 50-review
    campaign visibly moves an obscure app's stars but barely dents a
    popular app's — matching how Play's aggregate behaves.
    """

    def __init__(self, catalog: Catalog, store: ReviewStore) -> None:
        self._catalog = catalog
        self._store = store
        self._baseline: dict[str, tuple[float, int]] = {}

    def _baseline_for(self, package: str) -> tuple[float, int]:
        if package not in self._baseline:
            app = self._catalog.get(package)
            # Historical mass: the listing's review count at first sight,
            # floored so brand-new apps still have a mild prior.
            self._baseline[package] = (
                app.aggregate_rating if app.aggregate_rating > 0 else 3.0,
                max(app.review_count, 5),
            )
        return self._baseline[package]

    def recompute(self, package: str) -> RatingUpdate:
        """Recompute one app's displayed rating; updates the catalog."""
        app = self._catalog.get(package)
        base_rating, base_weight = self._baseline_for(package)
        reviews = self._store.reviews_for_app(package)
        live_sum = sum(r.rating for r in reviews)
        total_weight = base_weight + len(reviews)
        after = (base_rating * base_weight + live_sum) / total_weight
        updated = app.with_counts(
            app.install_count,
            base_weight + len(reviews),
            round(after, 4),
        )
        self._catalog.update(updated)
        return RatingUpdate(
            package=package,
            before=app.aggregate_rating,
            after=updated.aggregate_rating,
            live_reviews=len(reviews),
        )
