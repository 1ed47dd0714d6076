"""Tests for aggregate-rating recomputation."""

import pytest

from repro.playstore.catalog import Catalog
from repro.playstore.ratings import RatingAggregator
from repro.playstore.reviews import ReviewStore


@pytest.fixture()
def setup(rng):
    catalog = Catalog(rng)
    store = ReviewStore()
    aggregator = RatingAggregator(catalog, store)
    return catalog, store, aggregator


class TestRatingAggregator:
    def test_five_star_campaign_raises_obscure_app(self, setup):
        catalog, store, aggregator = setup
        app = catalog.add_promoted_app()
        before = catalog.get(app.package).aggregate_rating
        for i in range(60):
            store.post_review(app.package, f"g{i}", 5, float(i))
        update = aggregator.recompute(app.package)
        assert update.after > before
        assert catalog.get(app.package).aggregate_rating == update.after

    def test_popular_app_barely_moves(self, setup):
        catalog, store, aggregator = setup
        app = catalog.add_popular_app()  # >= 15k historical reviews
        for i in range(60):
            store.post_review(app.package, f"g{i}", 5, float(i))
        update = aggregator.recompute(app.package)
        assert abs(update.after - update.before) < 0.05

    def test_review_bombing_lowers_rating(self, setup):
        catalog, store, aggregator = setup
        app = catalog.add_promoted_app()
        before = catalog.get(app.package).aggregate_rating
        for i in range(80):
            store.post_review(app.package, f"g{i}", 1, float(i))
        update = aggregator.recompute(app.package)
        assert update.after < before

    def test_rating_stays_in_range(self, setup):
        catalog, store, aggregator = setup
        app = catalog.add_promoted_app()
        for i in range(200):
            store.post_review(app.package, f"g{i}", 5, float(i))
        update = aggregator.recompute(app.package)
        assert 1.0 <= update.after <= 5.0

    def test_baseline_frozen_at_first_sight(self, setup):
        """Repeated recomputation must not compound the live reviews."""
        catalog, store, aggregator = setup
        app = catalog.add_promoted_app()
        for i in range(30):
            store.post_review(app.package, f"g{i}", 5, float(i))
        first = aggregator.recompute(app.package)
        second = aggregator.recompute(app.package)
        assert second.after == pytest.approx(first.after)
