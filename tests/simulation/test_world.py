"""Tests for the behaviour engine and the world driver (shared small study)."""

import numpy as np
import pytest

from repro.simulation import SECONDS_PER_DAY, SimulationConfig, run_study
from repro.simulation.world import build_world


class TestStudyStructure:
    def test_cohort_sizes(self, study, small_config):
        workers = [p for p in study.participants if p.is_worker]
        regulars = [p for p in study.participants if not p.is_worker]
        assert len(workers) >= small_config.n_worker_devices
        assert len(regulars) >= small_config.n_regular_devices // 2

    def test_eligibility_filter(self, study):
        eligible = study.eligible_participants(min_days=2)
        assert all(p.active_days >= 2 for p in eligible)
        dropouts = [p for p in study.participants if p.is_dropout]
        assert dropouts  # the config plants them
        assert not set(id(p) for p in dropouts) & set(id(p) for p in eligible)

    def test_every_participant_signed_in(self, study):
        assert all(p.app.install_id is not None for p in study.participants)

    def test_server_received_data_for_eligible(self, study):
        for participant in study.eligible_participants(min_days=2):
            assert study.server.snapshot_count(participant.app.install_id) > 0

    def test_reviews_exist_and_crawled(self, study):
        assert study.review_store.total_reviews() > 100
        assert study.review_crawler.collected_total() > 0

    def test_worker_devices_have_more_accounts(self, study):
        worker_gmail = [
            len(p.device.gmail_accounts()) for p in study.participants if p.is_worker
        ]
        regular_gmail = [
            len(p.device.gmail_accounts()) for p in study.participants if not p.is_worker
        ]
        assert np.median(worker_gmail) > np.median(regular_gmail) * 2

    def test_promo_installs_only_on_worker_devices(self, study):
        for participant in (p for p in study.participants if not p.is_worker):
            assert participant.device.promo_installed() == []

    def test_campaign_board_delivered_work(self, study):
        delivered = sum(c.delivered_installs for c in study.board.campaigns())
        assert delivered > 0

    def test_repeat_installs_coalesced(self, study):
        installs = len(study.server.install_ids())
        devices = len(study.server.unique_devices())
        unique_sim_devices = len({p.device.device_id for p in study.participants})
        assert installs > unique_sim_devices  # repeats exist
        assert devices == unique_sim_devices  # fingerprinting recovers truth

    def test_review_uniqueness_per_account_app(self, study):
        for participant in study.participants[:20]:
            for account in participant.device.gmail_accounts():
                reviews = study.review_store.reviews_by_google_id(account.google_id)
                pairs = [(r.app_package, r.google_id) for r in reviews]
                assert len(pairs) == len(set(pairs))

    def test_apk_hash_oracle_covers_catalog(self, study):
        oracle = study.apk_hash_oracle()
        for app in study.catalog.all_apps():
            assert app.current_apk_hash in oracle


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = SimulationConfig.small().scaled(study_days=3, n_worker_devices=6,
                                                 n_regular_devices=4, n_dropout_devices=2)
        a = run_study(config)
        b = run_study(config)
        assert len(a.participants) == len(b.participants)
        for pa, pb in zip(a.participants, b.participants):
            assert pa.device.installed_packages() == pb.device.installed_packages()
            assert len(pa.device.events) == len(pb.device.events)
        assert a.review_store.total_reviews() == b.review_store.total_reviews()

    def test_different_seed_differs(self):
        base = SimulationConfig.small().scaled(study_days=3, n_worker_devices=6,
                                               n_regular_devices=4, n_dropout_devices=2)
        a = run_study(base)
        b = run_study(base.scaled(seed=base.seed + 1))
        assert a.review_store.total_reviews() != b.review_store.total_reviews()


class TestBuildWorld:
    def test_build_without_running(self):
        data, engine, factory, rng = build_world(SimulationConfig.small())
        assert len(data.catalog) > 0
        assert data.participants == []
        assert len(data.board.campaigns()) == data.config.n_promoted_apps

    def test_evasion_multipliers_reduce_reviews(self):
        config = SimulationConfig.small().scaled(study_days=4)
        baseline = run_study(config)
        evading = run_study(config.scaled(worker_review_volume_multiplier=0.2))

        def worker_reviews(data):
            total = 0
            for p in (p for p in data.participants if p.is_worker):
                for a in p.device.gmail_accounts():
                    total += len(data.review_store.reviews_by_google_id(a.google_id))
            return total

        assert worker_reviews(evading) < worker_reviews(baseline) * 0.65
