"""Tests for the review store and the incremental review crawler."""

import pytest

from repro.playstore.reviews import Review, ReviewCrawler, ReviewStore
from repro.simulation.calibration import DATASET


@pytest.fixture()
def store():
    return ReviewStore()


class TestReviewStore:
    def test_post_and_query(self, store):
        store.post_review("com.app.a", "gid1", 5, 100.0)
        store.post_review("com.app.a", "gid2", 4, 200.0)
        reviews = store.reviews_for_app("com.app.a")
        assert [r.google_id for r in reviews] == ["gid1", "gid2"]

    def test_one_live_review_per_account_per_app(self, store):
        store.post_review("com.app.a", "gid1", 5, 100.0)
        store.post_review("com.app.a", "gid1", 1, 500.0)  # replaces
        reviews = store.reviews_for_app("com.app.a")
        assert len(reviews) == 1
        assert reviews[0].rating == 1
        assert reviews[0].timestamp == 500.0

    def test_same_account_many_apps(self, store):
        for i in range(5):
            store.post_review(f"com.app.{i}", "gid1", 5, float(i))
        assert store.apps_reviewed_by("gid1") == {f"com.app.{i}" for i in range(5)}

    def test_time_ordering_maintained(self, store):
        store.post_review("com.app.a", "g1", 5, 300.0)
        store.post_review("com.app.a", "g2", 5, 100.0)
        store.post_review("com.app.a", "g3", 5, 200.0)
        timestamps = [r.timestamp for r in store.reviews_for_app("com.app.a")]
        assert timestamps == sorted(timestamps)

    def test_invalid_rating_rejected(self, store):
        with pytest.raises(ValueError):
            store.post_review("com.app.a", "g1", 6, 1.0)
        with pytest.raises(ValueError):
            store.post_review("com.app.a", "g1", 0, 1.0)

    def test_total_reviews(self, store):
        store.post_review("a", "g1", 5, 1.0)
        store.post_review("b", "g1", 5, 2.0)
        store.post_review("b", "g2", 5, 3.0)
        assert store.total_reviews() == 3

    def test_has_reviewed(self, store):
        store.post_review("a", "g1", 5, 1.0)
        assert store.has_reviewed("g1", "a")
        assert not store.has_reviewed("g1", "b")

    def test_review_count_counts_live_reviews(self, store):
        store.post_review("a", "g1", 5, 1.0)
        store.post_review("a", "g2", 4, 2.0)
        store.post_review("a", "g1", 1, 3.0)  # replaces g1's review
        assert store.review_count("a") == 2
        assert store.review_count("never-reviewed") == 0

    def test_reviews_by_account_oldest_first(self, store):
        store.post_review("b", "g1", 5, 20.0)
        store.post_review("a", "g1", 4, 10.0)
        store.post_review("a", "g2", 3, 5.0)
        reviews = store.reviews_by_google_id("g1")
        assert [(r.app_package, r.timestamp) for r in reviews] == [("a", 10.0), ("b", 20.0)]
        assert store.reviews_by_google_id("unknown") == []


class TestReviewCrawler:
    def test_first_crawl_collects_everything_under_cap(self, store):
        for i in range(20):
            store.post_review("app", f"g{i}", 5, float(i))
        crawler = ReviewCrawler(store, first_crawl_cap=DATASET.FIRST_CRAWL_CAP)
        crawler.track_app("app")
        new = crawler.crawl_app("app")
        assert len(new) == 20
        assert crawler.collected_total() == 20

    def test_first_crawl_cap_enforced(self, store):
        for i in range(30):
            store.post_review("app", f"g{i}", 5, float(i))
        crawler = ReviewCrawler(store, first_crawl_cap=10)
        new = crawler.crawl_app("app")
        assert len(new) == 10
        # The cap keeps the *most recent* reviews.
        assert min(r.timestamp for r in new) == 20.0

    def test_world_crawler_uses_the_paper_cap(self, study):
        assert study.review_crawler.first_crawl_cap == DATASET.FIRST_CRAWL_CAP == 100_000

    def test_incremental_crawl_stops_at_seen(self, store):
        for i in range(10):
            store.post_review("app", f"g{i}", 5, float(i))
        crawler = ReviewCrawler(store, first_crawl_cap=DATASET.FIRST_CRAWL_CAP)
        crawler.crawl_app("app")
        for i in range(10, 14):
            store.post_review("app", f"g{i}", 5, float(i))
        new = crawler.crawl_app("app")
        assert len(new) == 4
        assert {r.google_id for r in new} == {"g10", "g11", "g12", "g13"}

    def test_crawl_round_covers_tracked_apps(self, store):
        for app in ("a", "b"):
            for i in range(3):
                store.post_review(app, f"g{i}", 5, float(i))
        crawler = ReviewCrawler(store, first_crawl_cap=DATASET.FIRST_CRAWL_CAP)
        crawler.track_app("a")
        crawler.track_app("b")
        assert crawler.crawl_round() == 6
        assert crawler.stats.crawl_rounds == 1

    def test_no_duplicates_across_rounds(self, store):
        for i in range(5):
            store.post_review("app", f"g{i}", 5, float(i))
        crawler = ReviewCrawler(store, first_crawl_cap=DATASET.FIRST_CRAWL_CAP)
        crawler.track_app("app")
        assert crawler.crawl_round() == 5
        assert crawler.crawl_round() == 0
        assert crawler.collected_total() == 5

    def test_track_idempotent(self, store):
        crawler = ReviewCrawler(store, first_crawl_cap=DATASET.FIRST_CRAWL_CAP)
        crawler.track_app("a")
        crawler.track_app("a")
        assert crawler.stats.apps_crawled == 1


class TestReviewDataclass:
    def test_ordering_by_timestamp(self):
        early = Review(1.0, 2, "a", "g", 5)
        late = Review(2.0, 1, "a", "g", 5)
        assert early < late
