"""Every scalar draw the simulation used to make with ``Generator.choice``
must equal ``choice``'s and leave the generator where ``choice`` left it.

Weighted draws search a precomputed CDF (``repro.simulation.draws``) and
uniform picks index the sequence with ``integers(0, len(seq))``.  For each
distribution and each picked sequence, 100,000 draws through the product
code and 100,000 through ``rng.choice`` (with the old code's ``int``/
``str``/``float`` conversion) from equal seeds must give equal values of
equal types and an equal next ``random()``.  The catalog's category
picks are checked through the methods that make them, on fewer apps:
each app also draws a permission profile.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.playstore import catalog
from repro.playstore.catalog import CATEGORIES, MOD_CATEGORIES, Catalog
from repro.playstore.google_id import GmailDirectory
from repro.playstore.permissions import sample_permission_profile
from repro.simulation import accounts, behavior, campaigns, recruitment
from repro.simulation.calibration import APP_CLASSIFIER
from repro.simulation.config import SimulationConfig
from repro.simulation.draws import cumulative, weighted_index
from repro.simulation.phases import build_day_params
from repro.simulation.world import build_world

N_DRAWS = 100_000
N_APPS = 2_000
SEED = 20211102
PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def assert_same_draws(new, old, new_rng=None, old_rng=None, n=N_DRAWS):
    """``new(rng)`` and ``old(rng)`` ``n`` times each from equal seeds."""
    new_rng = new_rng or np.random.default_rng(SEED)
    old_rng = old_rng or np.random.default_rng(SEED)
    new_values = [new(new_rng) for _ in range(n)]
    old_values = [old(old_rng) for _ in range(n)]
    assert new_values == old_values
    assert [type(v) for v in new_values] == [type(v) for v in old_values]
    assert new_rng.random() == old_rng.random()


@pytest.fixture(scope="module")
def small_world():
    data, engine, _factory, _rng = build_world(SimulationConfig.small())
    return data, engine


@pytest.mark.parametrize("promo", [True, False], ids=["promo", "organic"])
def test_review_ratings(promo):
    stars, p = (
        (behavior.PROMO_STARS, behavior.PROMO_STAR_P)
        if promo
        else (behavior.ORGANIC_STARS, behavior.ORGANIC_STAR_P)
    )
    assert_same_draws(
        lambda rng: behavior.review_rating(rng, promo),
        lambda rng: int(rng.choice(stars, p=p)),
    )


def test_popular_pool_zipf_weights(small_world):
    _data, engine = small_world
    weights = engine.popular_weights()
    cdf = build_day_params(engine).popular_cdf
    assert len(cdf) == len(weights) > 100
    assert_same_draws(
        lambda rng: weighted_index(rng, cdf),
        lambda rng: int(rng.choice(len(weights), p=weights)),
    )


def test_campaign_weights_vector(small_world):
    # ShardBoardView.next_job weighs open campaigns by remaining installs.
    data, _engine = small_world
    weights = np.array(
        [c.installs_remaining for c in data.board.freeze().campaigns], dtype=float
    )
    assert len(weights) > 1
    assert_same_draws(
        lambda rng: weighted_index(rng, cumulative(weights / weights.sum())),
        lambda rng: int(rng.choice(len(weights), p=weights / weights.sum())),
    )


@pytest.mark.parametrize("is_worker", [True, False], ids=["worker", "regular"])
def test_country_weights(is_worker):
    p = recruitment.country_probabilities(is_worker)
    assert_same_draws(
        lambda rng: recruitment.sample_country(rng, is_worker),
        lambda rng: str(rng.choice(list(recruitment.COUNTRIES), p=p)),
    )


def test_campaign_settings():
    # Target counts, then the weighted minimum rating and the uniform
    # retention pick, in post_campaign's order.
    app = Catalog(np.random.default_rng(0)).add_promoted_app()

    def post(board):
        campaign = board.post_campaign(app)
        return (
            campaign.target_installs,
            campaign.target_reviews,
            campaign.min_rating,
            campaign.retention_days,
        )

    def old_post(rng):
        return (
            int(rng.integers(40, 400)),
            int(rng.integers(20, 200)),
            int(rng.choice(campaigns.MIN_RATINGS, p=campaigns.MIN_RATING_P)),
            float(rng.choice(campaigns.RETENTION_DAYS)),
        )

    new_rng = np.random.default_rng(SEED)
    board = campaigns.CampaignBoard(new_rng)
    assert_same_draws(lambda _rng: post(board), old_post, new_rng=new_rng)


def test_gmail_name_picks():
    new_rng = np.random.default_rng(SEED)
    factory = accounts.AccountFactory(GmailDirectory(), new_rng)
    serial = iter(range(1, N_DRAWS + 1))

    def old_email(rng):
        first = rng.choice(accounts._FIRST)
        last = rng.choice(accounts._LAST)
        return f"{first}.{last}{next(serial)}@gmail.com"

    assert_same_draws(
        lambda _rng: factory.new_gmail().identifier, old_email, new_rng=new_rng
    )


def test_package_name_word_picks():
    new_rng = np.random.default_rng(SEED)
    old_rng = np.random.default_rng(SEED)
    new_catalog = Catalog(new_rng)
    Catalog(old_rng)  # the same preinstalled-app draws
    serial = iter(range(1, N_DRAWS + 1))

    def old_package(rng):
        a = rng.choice(catalog._WORD_A)
        b = rng.choice(catalog._WORD_B)
        return f"com.app.{a}{b}{next(serial)}", f"{a.title()} {b.title()}"

    assert_same_draws(
        lambda _rng: new_catalog._new_package("app"),
        old_package,
        new_rng=new_rng,
        old_rng=old_rng,
    )


def old_words(rng):
    return rng.choice(catalog._WORD_A), rng.choice(catalog._WORD_B)


def old_popular_category(rng):
    old_words(rng)
    int(rng.pareto(1.1) * 30_000 + APP_CLASSIFIER.MIN_REVIEWS_FOR_REGULAR)
    rng.integers(30, 120)
    category = str(rng.choice(CATEGORIES))
    rng.integers(1, 500)
    rng.normal(4.1, 0.4)
    sample_permission_profile(rng)
    rng.integers(1, 4)
    return category


def old_promoted_category(rng):
    old_words(rng)
    is_malware = bool(rng.random() < 0.08)
    aggressive = is_malware or rng.random() < 0.25
    rng.integers(0, 900)
    category = str(rng.choice(CATEGORIES))
    rng.integers(500, 2000)
    rng.integers(5, 40)
    rng.integers(10, 5_000)
    rng.normal(3.6, 0.7)
    sample_permission_profile(rng, aggressive=aggressive)
    return category


def old_mod_category(rng):
    old_words(rng)
    category = str(rng.choice(MOD_CATEGORIES))
    sample_permission_profile(rng, aggressive=True)
    rng.random()
    return category


@pytest.mark.parametrize(
    "method, old_category",
    [
        ("add_popular_app", old_popular_category),
        ("add_promoted_app", old_promoted_category),
        ("add_third_party_app", old_mod_category),
    ],
    ids=["popular", "promoted", "mod"],
)
def test_category_picks(method, old_category):
    # Each old_*_category replays the method's draws as they were made
    # with ``rng.choice``; the category is the one value compared.
    new_rng = np.random.default_rng(SEED)
    old_rng = np.random.default_rng(SEED)
    add_app = getattr(Catalog(new_rng), method)
    Catalog(old_rng)  # the same preinstalled-app draws
    assert_same_draws(
        lambda _rng: add_app().category,
        old_category,
        new_rng=new_rng,
        old_rng=old_rng,
        n=N_APPS,
    )


@pytest.mark.parametrize("layer", ["simulation", "playstore"])
def test_no_scalar_choice_remains(layer):
    """Only ``choice`` calls with ``size`` stay: without replacement they
    draw by another algorithm, which has no cheaper exact equivalent."""
    scalar_calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((PACKAGE / layer).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice"
        and not any(keyword.arg == "size" for keyword in node.keywords)
    ]
    assert scalar_calls == []
