"""Play Store review store and the RacketStore review crawler.

§5 of the paper: the review crawler queries Google Play every 12 hours
for each app seen on a participant device, sorted by timestamp; the
first crawl collects up to 100,000 reviews, subsequent crawls collect
the most recent reviews until hitting one already collected.  Each
review carries the poster's Google ID, a 1-second-granularity timestamp
and a star rating.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field

from .. import obs

__all__ = ["Review", "ReviewStore", "ReviewCrawler", "CrawlStats"]


@dataclass(frozen=True, order=True)
class Review:
    """One Play Store review.  Ordering is (timestamp, review_id) so the
    store can keep per-app lists sorted by posting time."""

    timestamp: float
    review_id: int
    app_package: str = field(compare=False)
    google_id: str = field(compare=False)
    rating: int = field(compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.rating <= 5:
            raise ValueError(f"rating must be 1..5, got {self.rating}")


class ReviewStore:
    """The Play Store's review database (one list per app, time-sorted).

    A Google account can post at most one *live* review per app — the
    paper relies on this ("For one app, a single review can be posted
    from any Gmail account"), which is exactly why workers register many
    Gmail accounts.  Posting again from the same account replaces the
    previous review.
    """

    def __init__(self) -> None:
        self._by_app: dict[str, list[Review]] = {}
        self._by_google_id: dict[str, dict[str, Review]] = {}
        self._id_counter = itertools.count(1)

    def post_review(
        self, app_package: str, google_id: str, rating: int, timestamp: float
    ) -> Review:
        """Post (or replace) the review for (app, account)."""
        previous = self._by_google_id.get(google_id, {}).get(app_package)
        if previous is not None:
            self._by_app[app_package].remove(previous)
        review = Review(
            timestamp=float(timestamp),
            review_id=next(self._id_counter),
            app_package=app_package,
            google_id=google_id,
            rating=int(rating),
        )
        insort(self._by_app.setdefault(app_package, []), review)
        self._by_google_id.setdefault(google_id, {})[app_package] = review
        return review

    # -- queries -----------------------------------------------------------
    def reviews_for_app(self, app_package: str) -> list[Review]:
        """All live reviews for an app, oldest first."""
        return list(self._by_app.get(app_package, []))

    def reviews_by_google_id(self, google_id: str) -> list[Review]:
        """Every live review posted by one Google account."""
        return sorted(self._by_google_id.get(google_id, {}).values())

    def review_count(self, app_package: str) -> int:
        return len(self._by_app.get(app_package, []))

    def total_reviews(self) -> int:
        return sum(len(v) for v in self._by_app.values())

    def apps_reviewed_by(self, google_id: str) -> set[str]:
        return set(self._by_google_id.get(google_id, {}))

    def has_reviewed(self, google_id: str, app_package: str) -> bool:
        return app_package in self._by_google_id.get(google_id, {})


@dataclass
class CrawlStats:
    """Bookkeeping the crawler exposes for the §5 dataset summary."""

    apps_crawled: int = 0
    crawl_rounds: int = 0
    reviews_collected: int = 0
    reviews_truncated_first_crawl: int = 0


class ReviewCrawler:
    """Incremental review collector with the paper's crawl semantics.

    * first crawl of an app: newest-first until ``first_crawl_cap``
      (100,000 in the paper);
    * later crawls: newest-first until a previously collected review id
      is hit;
    * a crawl round covers every tracked app (the paper ran one round
      every 12 hours).
    """

    def __init__(self, store: ReviewStore, first_crawl_cap: int = 100_000) -> None:
        self._store = store
        self.first_crawl_cap = first_crawl_cap
        self._seen: dict[str, set[int]] = {}
        self._tracked: set[str] = set()
        self.stats = CrawlStats()

    def track_app(self, app_package: str) -> None:
        """Register an app discovered on a participant device."""
        if app_package not in self._tracked:
            self._tracked.add(app_package)
            self.stats.apps_crawled += 1
            obs.counter("crawl_apps_tracked_total").inc()

    def tracked_apps(self) -> set[str]:
        return set(self._tracked)

    def crawl_app(self, app_package: str) -> list[Review]:
        """Crawl one app; returns newly collected reviews (newest first)."""
        seen = self._seen.setdefault(app_package, set())
        first_crawl = not seen
        new: list[Review] = []
        # Page through newest-first; the store gives us the full ordered
        # list, we walk it from the newest end like the paginated API.
        all_reviews = self._store.reviews_for_app(app_package)
        for review in reversed(all_reviews):
            if review.review_id in seen:
                if not first_crawl:
                    break
                continue
            if first_crawl and len(new) >= self.first_crawl_cap:
                self.stats.reviews_truncated_first_crawl += 1
                break
            new.append(review)
            seen.add(review.review_id)
        self.stats.reviews_collected += len(new)
        return new

    def crawl_round(self) -> int:
        """One 12-hour crawl cycle over every tracked app."""
        total = 0
        with obs.trace("crawl.round"):
            for app_package in sorted(self._tracked):
                total += len(self.crawl_app(app_package))
        self.stats.crawl_rounds += 1
        obs.counter("crawl_rounds_total").inc()
        obs.counter("crawl_reviews_collected_total").inc(total)
        return total

    def collected_total(self) -> int:
        return self.stats.reviews_collected
