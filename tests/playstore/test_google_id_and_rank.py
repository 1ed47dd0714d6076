"""Tests for the Google-ID crawler and the search-rank model."""

import numpy as np
import pytest

from repro.playstore.catalog import Catalog
from repro.playstore.google_id import GmailDirectory, GoogleIdCrawler
from repro.playstore.rank import RankWeights, SearchRankModel


class TestGmailDirectory:
    def test_register_and_resolve(self):
        directory = GmailDirectory()
        gid = directory.register("worker1@gmail.com")
        assert directory.resolve("worker1@gmail.com") == gid
        assert len(gid) == 21 and gid.isdigit()

    def test_register_idempotent(self):
        directory = GmailDirectory()
        a = directory.register("x@gmail.com")
        b = directory.register("x@gmail.com")
        assert a == b and len(directory) == 1

    def test_distinct_emails_distinct_ids(self):
        directory = GmailDirectory()
        ids = {directory.register(f"user{i}@gmail.com") for i in range(100)}
        assert len(ids) == 100

    def test_non_gmail_rejected(self):
        with pytest.raises(ValueError):
            GmailDirectory().register("user@yahoo.com")

    def test_suspension_hides_account(self):
        directory = GmailDirectory()
        directory.register("bad@gmail.com")
        directory.suspend("bad@gmail.com")
        assert directory.resolve("bad@gmail.com") is None
        assert directory.is_suspended("bad@gmail.com")

    def test_suspend_unknown_raises(self):
        with pytest.raises(KeyError):
            GmailDirectory().suspend("ghost@gmail.com")


class TestGoogleIdCrawler:
    def test_lookup_hit_and_miss(self):
        directory = GmailDirectory()
        directory.register("a@gmail.com")
        crawler = GoogleIdCrawler(directory)
        assert crawler.lookup("a@gmail.com") is not None
        assert crawler.lookup("nobody@gmail.com") is None
        assert crawler.stats.hits == 1 and crawler.stats.misses == 1

    def test_cache_avoids_repeat_requests(self):
        directory = GmailDirectory()
        directory.register("a@gmail.com")
        crawler = GoogleIdCrawler(directory)
        crawler.lookup("a@gmail.com")
        crawler.lookup("a@gmail.com")
        assert crawler.stats.requests == 1
        assert crawler.stats.cached == 1


class TestSearchRank:
    @pytest.fixture()
    def catalog(self, rng):
        catalog = Catalog(rng)
        for _ in range(30):
            catalog.add_popular_app()
        return catalog

    def test_more_installs_never_hurt_rank(self, catalog):
        model = SearchRankModel(catalog)
        app = catalog.add_promoted_app()
        keyword = app.title.split()[0].lower()
        before = model.rank_of(app.package, keyword)
        catalog.update(app.with_counts(app.install_count * 1000 + 10**7,
                                       app.review_count + 50_000, 4.9))
        after = model.rank_of(app.package, keyword)
        assert after <= before

    def test_search_returns_sorted_ranks(self, catalog):
        model = SearchRankModel(catalog)
        results = model.search("photo", top=10)
        assert [r.rank for r in results] == list(range(1, len(results) + 1))
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_keyword_relevance_boosts_matching_titles(self, catalog):
        model = SearchRankModel(catalog)
        app = catalog.add_popular_app()
        keyword = app.title.split()[0].lower()
        with_kw = model.score(app, keyword)
        without = model.score(app, "zzzzz")
        assert with_kw > without

    def test_third_party_apps_unranked(self, catalog):
        model = SearchRankModel(catalog)
        side_loaded = catalog.add_third_party_app()
        packages = {r.package for r in model.search("mod", top=1000)}
        assert side_loaded.package not in packages

    def test_custom_weights(self, catalog):
        app = catalog.add_popular_app()
        rating_heavy = SearchRankModel(catalog, RankWeights(installs=0, reviews=0, rating=10, relevance=0))
        assert rating_heavy.score(app) == pytest.approx(10 * app.aggregate_rating)
