"""Tests for the keyword rank tracker."""

import pytest

from repro.playstore.catalog import Catalog
from repro.playstore.rank import SearchRankModel
from repro.playstore.rank_tracker import RankTracker


@pytest.fixture()
def world(rng):
    catalog = Catalog(rng)
    for _ in range(40):
        catalog.add_popular_app()
    app = catalog.add_promoted_app()
    return catalog, app


class TestRankTracker:
    def test_series_grows_per_day(self, world):
        catalog, app = world
        tracker = RankTracker(catalog)
        keyword = app.title.split()[0].lower()
        tracker.track(app.package, keyword)
        for day in range(4):
            tracker.record_day(day)
        series = tracker.series(app.package, keyword)
        assert [s.day for s in series] == [0, 1, 2, 3]

    def test_track_idempotent(self, world):
        catalog, app = world
        tracker = RankTracker(catalog)
        tracker.track(app.package, "kw")
        tracker.record_day(0)
        tracker.track(app.package, "kw")  # must not clear history
        assert len(tracker.series(app.package, "kw")) == 1

    def test_campaign_improves_rank(self, world):
        catalog, app = world
        tracker = RankTracker(catalog)
        keyword = app.title.split()[0].lower()
        tracker.track(app.package, keyword)
        tracker.record_day(0)
        # Campaign lands: installs, reviews and rating climb.
        catalog.update(
            app.with_counts(app.install_count + 10**7, app.review_count + 50_000, 4.9)
        )
        tracker.record_day(1)
        series = tracker.series(app.package, keyword)
        assert series[1].rank < series[0].rank

    def test_untracked_series_empty(self, world):
        catalog, _ = world
        tracker = RankTracker(catalog)
        assert tracker.series("com.none", "kw") == []


class TestBatchRankEquivalence:
    """``ranks_for`` (the vectorized pass the tracker uses daily) must
    agree exactly with the scalar ``rank_of`` reference."""

    def test_batch_ranks_match_scalar_reference(self, world):
        catalog, app = world
        model = SearchRankModel(catalog)
        hosted = catalog.hosted_on_play()
        keywords = [hosted[0].title.split()[0].lower(), "game", "zzz"]
        pairs = [
            (candidate.package, keyword)
            for candidate in hosted[:12] + [app]
            for keyword in keywords
        ]
        batch = model.ranks_for(pairs)
        for package, keyword in pairs:
            assert batch[(package, keyword)] == model.rank_of(package, keyword)

    def test_boosts_overlay_matches_mutated_catalog(self, world):
        catalog, app = world
        model = SearchRankModel(catalog)
        keyword = app.title.split()[0].lower()
        boosted = model.ranks_for(
            [(app.package, keyword)], boosts={app.package: (10**7, 50_000)}
        )
        catalog.update(
            app.with_counts(app.install_count + 10**7, app.review_count + 50_000,
                            app.aggregate_rating)
        )
        assert boosted[(app.package, keyword)] == model.rank_of(app.package, keyword)

    def test_relevance_cache_invalidated_by_catalog_mutation(self, world):
        catalog, app = world
        model = SearchRankModel(catalog)
        keyword = "game"
        before = model.ranks_for([(app.package, keyword)])
        version = catalog.version
        new_app = catalog.add_popular_app()  # hosted set changes
        assert catalog.version > version
        after = model.ranks_for([(app.package, keyword), (new_app.package, keyword)])
        assert after[(app.package, keyword)] == model.rank_of(app.package, keyword)
        assert before[(app.package, keyword)] >= 1
