"""Tests for persona distributions and the ASO campaign board."""

import numpy as np
import pytest

from repro.playstore.catalog import Catalog
from repro.simulation.campaigns import PAY_PER_INSTALL_USD, PAY_PER_REVIEW_USD, CampaignBoard
from repro.simulation.personas import dedicated_worker, organic_worker, regular_user
from repro.simulation.phases import ShardBoardView
from repro.simulation.recruitment import simulate_funnel
from tests.helpers import post_campaign


def take_job(board, rng, exclude_packages=None):
    """One job as a device picks it in phase 1 (from a view over the
    board's current state) and the phase-2 commit credits it."""
    job = ShardBoardView(board.freeze()).next_job(rng, exclude_packages)
    if job is not None:
        board.apply_delivery(job.campaign_id, review=job.wants_review)
    return job


class TestPersonas:
    def test_worker_flags(self):
        assert not regular_user().is_worker
        assert organic_worker().is_worker
        assert dedicated_worker().is_worker

    def test_gmail_counts_ordered_by_persona(self, rng):
        def mean_gmail(persona):
            return np.mean([persona.sample_gmail_accounts(rng) for _ in range(300)])

        regular = mean_gmail(regular_user())
        organic = mean_gmail(organic_worker())
        dedicated = mean_gmail(dedicated_worker())
        assert regular < organic < dedicated

    def test_regular_gmail_capped_at_10(self, rng):
        persona = regular_user()
        assert max(persona.sample_gmail_accounts(rng) for _ in range(500)) <= 10

    def test_worker_gmail_cap_matches_paper_max(self, rng):
        assert dedicated_worker().gmail_max == 163

    def test_review_delays_shorter_for_workers(self, rng):
        worker = organic_worker()
        regular = regular_user()
        worker_delays = [worker.sample_review_delay_days(rng) for _ in range(500)]
        regular_delays = [regular.sample_review_delay_days(rng) for _ in range(500)]
        assert np.median(worker_delays) < np.median(regular_delays)

    def test_worker_fast_review_fraction(self, rng):
        delays = [organic_worker().sample_review_delay_days(rng) for _ in range(2000)]
        fast = np.mean(np.array(delays) <= 1.0)
        assert 0.2 <= fast <= 0.45  # paper: 33% within one day

    def test_dedicated_stop_many_apps(self, rng):
        stops = [dedicated_worker().sample_stopped_apps(rng) for _ in range(300)]
        assert np.median(stops) >= 10

    def test_regular_user_never_promotes(self, rng):
        persona = regular_user()
        assert persona.sample_promo_installs(rng) == 0
        assert persona.initial_promo_fraction == 0.0

    def test_organic_intensity_scales_workload(self):
        low = organic_worker(intensity=0.1)
        high = organic_worker(intensity=2.0)
        assert low.campaigns_per_day_mean < high.campaigns_per_day_mean
        assert low.gmail_log_median < high.gmail_log_median
        assert low.initial_promo_fraction < high.initial_promo_fraction

    def test_samples_non_negative(self, rng):
        for persona in (regular_user(), organic_worker(0.3), dedicated_worker()):
            for _ in range(50):
                assert persona.sample_daily_installs(rng) >= 0
                assert persona.sample_stopped_apps(rng) >= 0
                assert persona.sample_review_delay_days(rng) > 0
                assert persona.sample_sessions(rng) >= 0


class TestCampaignBoard:
    @pytest.fixture()
    def board_with_apps(self, rng):
        catalog = Catalog(rng)
        board = CampaignBoard(rng)
        apps = [catalog.add_promoted_app() for _ in range(5)]
        for app in apps:
            post_campaign(board, app, installs=10, reviews=6)
        return board, apps

    def test_advertised_packages(self, board_with_apps):
        board, apps = board_with_apps
        assert board.advertised_packages() == {a.package for a in apps}

    def test_job_decrements_remaining(self, board_with_apps, rng):
        board, _ = board_with_apps
        job = take_job(board, rng)
        campaign = board.get(job.campaign_id)
        assert campaign.delivered_installs == 1
        assert job.wants_review

    def test_jobs_exhaust_eventually(self, board_with_apps, rng):
        board, _ = board_with_apps
        jobs = 0
        while take_job(board, rng) is not None:
            jobs += 1
            assert jobs <= 50
        assert jobs == 50  # 5 campaigns x 10 installs

    def test_exclusion_respected(self, board_with_apps, rng):
        board, apps = board_with_apps
        exclude = {a.package for a in apps[:4]}
        job = take_job(board, rng, exclude_packages=exclude)
        assert job.app_package == apps[4].package

    def test_reviews_capped_at_target(self, board_with_apps, rng):
        board, _ = board_with_apps
        review_jobs = 0
        while (job := take_job(board, rng)) is not None:
            review_jobs += job.wants_review
        assert review_jobs == 30  # 5 campaigns x 6 reviews

    def test_payout_accounting(self, rng):
        catalog = Catalog(rng)
        board = CampaignBoard(rng)
        campaign = post_campaign(board, catalog.add_promoted_app(), installs=2, reviews=1)
        take_job(board, rng)
        take_job(board, rng)
        assert (campaign.delivered_installs, campaign.delivered_reviews) == (2, 1)
        expected = 2 * PAY_PER_INSTALL_USD + 1 * PAY_PER_REVIEW_USD
        assert board.total_payout_usd() == pytest.approx(expected)

    def test_job_delivery_counts_down_remaining(self, rng):
        catalog = Catalog(rng)
        board = CampaignBoard(rng)
        campaign = post_campaign(board, catalog.add_promoted_app(), installs=1, reviews=1)
        assert (campaign.installs_remaining, campaign.reviews_remaining) == (1, 1)
        take_job(board, rng)
        assert (campaign.installs_remaining, campaign.reviews_remaining) == (0, 0)


class TestRecruitmentFunnel:
    def test_monotone_stages(self, rng):
        funnel = simulate_funnel(rng)
        counts = [stage.count for stage in funnel.stages]
        assert counts == sorted(counts, reverse=True)

    def test_paper_scale_counts(self, rng):
        funnel = simulate_funnel(rng)
        assert funnel.count("reached") == pytest.approx(61_748, rel=0.1)
        assert funnel.count("installed") == pytest.approx(233, rel=0.35)

    def test_conversion_rates(self, rng):
        funnel = simulate_funnel(rng)
        assert funnel.count("installed") / funnel.count("impressions") < 0.01

    def test_unknown_stage_raises(self, rng):
        with pytest.raises(KeyError):
            simulate_funnel(rng).count("retention")


class TestCountrySampling:
    def test_known_countries_only(self, rng):
        from repro.simulation.recruitment import sample_country

        seen = {sample_country(rng, True) for _ in range(300)}
        assert seen <= {"PK", "IN", "BD", "US", "OTHER"}

    def test_cohort_skews_match_paper(self, rng):
        from repro.simulation.recruitment import sample_country

        workers = [sample_country(rng, True) for _ in range(800)]
        regulars = [sample_country(rng, False) for _ in range(800)]
        # Paper: workers mostly Pakistan, regulars mostly India.
        assert workers.count("PK") > workers.count("IN")
        assert regulars.count("IN") > regulars.count("PK")
