"""Tests for the Google-ID crawler and the search-rank model."""

import numpy as np
import pytest

from repro.playstore.catalog import Catalog
from repro.playstore.google_id import GmailDirectory, GoogleIdCrawler
from repro.playstore.rank import SearchRankModel


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

    def test_ranks_order_apps_by_score(self, catalog):
        model = SearchRankModel(catalog)
        hosted = catalog.hosted_on_play()
        rank = {app.package: model.rank_of(app.package, "photo") for app in hosted}
        assert sorted(rank.values()) == list(range(1, len(hosted) + 1))
        ranked = sorted(hosted, key=lambda app: rank[app.package])
        scores = [model.score(app, "photo") for app in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_third_party_apps_unranked(self, catalog):
        # Ranks count Play apps only: a side-loaded clone, however popular
        # and however well it matches, pushes no Play app down.
        model = SearchRankModel(catalog)
        hosted = [app.package for app in catalog.hosted_on_play()]
        before = {package: model.rank_of(package, "mod") for package in hosted}
        side_loaded = catalog.add_third_party_app()
        catalog.update(side_loaded.with_counts(10**9, 10**7, 5.0))
        assert {package: model.rank_of(package, "mod") for package in hosted} == before
        assert sorted(before.values()) == list(range(1, len(hosted) + 1))

    def test_keyword_relevance_boosts_matching_titles(self, catalog):
        model = SearchRankModel(catalog)
        app = catalog.add_popular_app()
        keyword = app.title.split()[0].lower()
        with_kw = model.score(app, keyword)
        without = model.score(app, "zzzzz")
        assert with_kw > without

