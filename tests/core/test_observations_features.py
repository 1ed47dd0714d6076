"""Tests for device observations and the §7.1/§8.1 feature matrices."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.app_features import (
    APP_FEATURE_NAMES,
    NEVER_REVIEWED_SENTINEL_DAYS,
    app_feature_matrix,
)
from repro.core.device_features import DEVICE_FEATURE_NAMES, device_feature_matrix
from repro.core.observations import build_observations
from repro.frames import ColumnRun
from repro.frames.frame import SchemaMismatchError
from repro.platform.mobile_app import RacketStoreApp
from repro.simulation import SimulationConfig, build_world


def _app_row(obs, package, catalog, vt_client=None) -> dict[str, float]:
    """One (app, device) row of :func:`app_feature_matrix`, by name."""
    row = app_feature_matrix(obs, [package], catalog, vt_client)[0]
    return dict(zip(APP_FEATURE_NAMES, row.tolist()))


def _device_row(obs, app_suspiciousness=None) -> dict[str, float]:
    """One device row of :func:`device_feature_matrix`, by name."""
    row = device_feature_matrix([obs], [app_suspiciousness])[0]
    return dict(zip(DEVICE_FEATURE_NAMES, row.tolist()))


class TestObservations:
    def test_one_observation_per_eligible_participant(self, study, observations):
        assert len(observations) == len(study.eligible_participants(min_days=2))

    def test_google_ids_resolved_from_slow_snapshots(self, observations):
        reporting = [o for o in observations if o.reported_account_data and o.gmail_addresses]
        assert reporting
        for obs in reporting[:10]:
            assert len(obs.google_ids) == len(obs.gmail_addresses)

    def test_accounts_blank_when_permission_denied(self, observations):
        denied = [o for o in observations if not o.reported_account_data]
        for obs in denied:
            assert obs.reported_accounts == ()
            assert obs.n_gmail_accounts == 0

    def test_install_times_cover_initial_apps(self, observations):
        obs = observations[0]
        for app in obs.initial_apps:
            assert app["package"] in obs.install_times

    def test_install_to_review_never_negative(self, observations):
        for obs in observations[:15]:
            for package in obs.device_reviews:
                for delta in obs.install_to_review_days(package):
                    assert delta > 0

    def test_snapshot_counts_positive(self, observations):
        for obs in observations:
            assert obs.total_snapshots > 0
            assert obs.snapshots_per_day > 0

    def test_worker_devices_review_more(self, observations):
        worker = np.mean([o.total_account_reviews for o in observations if o.is_worker])
        regular = np.mean([o.total_account_reviews for o in observations if not o.is_worker])
        assert worker > regular * 10

    def test_preinstalled_counted(self, observations):
        for obs in observations[:10]:
            assert obs.n_preinstalled >= 10
            assert obs.n_installed_apps == obs.n_preinstalled + obs.n_user_installed

    def test_foreground_days_only_with_permission(self, observations):
        for obs in observations:
            has_fg = any(run["foreground"] for run in obs.fast_runs)
            if not any(run.get("usage_permission", True) for run in obs.fast_runs):
                assert not has_fg

    def test_install_without_rows_gets_empty_runs(self, study):
        participant = study.participants[0]
        state = dataclasses.replace(
            participant.app.snapshot_state(), install_id="0000000000"
        )
        silent = dataclasses.replace(
            participant, app=RacketStoreApp.from_state(participant.device, state)
        )
        (obs,) = build_observations(study, [silent])
        for runs in (obs.slow_runs, obs.fast_runs, obs.app_changes):
            assert isinstance(runs, ColumnRun) and len(runs) == 0
            assert runs.frame.schema is not None
        assert obs.initial is None
        assert obs.total_snapshots == 0
        assert obs.foreground_days == {}
        assert not obs.reported_account_data

    def test_off_schema_snapshot_collection_raises(self):
        # Ingest checks every record against its schema; a direct
        # insert of an off-schema document raises at the insert, so
        # the read that follows never fails because of it.
        data, *_ = build_world(SimulationConfig.small())
        with pytest.raises(SchemaMismatchError, match="fast_runs"):
            data.server.store["fast_runs"].insert({"install_id": "0123456789"})
        build_observations(data)


class TestAppFeatures:
    def test_vector_matches_names(self, study, observations):
        obs = observations[0]
        packages = [a["package"] for a in obs.initial_apps[:3]]
        matrix = app_feature_matrix(obs, packages, study.catalog, study.vt_client)
        assert matrix.shape == (len(packages), len(APP_FEATURE_NAMES))
        assert app_feature_matrix(obs, [], study.catalog).shape == (
            0,
            len(APP_FEATURE_NAMES),
        )

    def test_never_reviewed_sentinel(self, study, observations):
        for obs in observations:
            unreviewed = [
                a["package"]
                for a in obs.initial_apps
                if a["package"] not in obs.device_reviews
            ]
            if unreviewed:
                features = _app_row(obs, unreviewed[0], study.catalog)
                assert features["install_to_review_mean_days"] == NEVER_REVIEWED_SENTINEL_DAYS
                assert features["accounts_reviewed_total"] == 0.0
                break
        else:
            pytest.fail("no unreviewed app found")

    def test_reviewed_app_has_finite_delay(self, study, observations):
        for obs in observations:
            if not obs.is_worker:
                continue
            for package in obs.device_reviews:
                if obs.install_to_review_days(package):
                    features = _app_row(obs, package, study.catalog)
                    assert features["install_to_review_mean_days"] < NEVER_REVIEWED_SENTINEL_DAYS
                    assert features["accounts_reviewed_total"] >= 1
                    return
        pytest.fail("no reviewed installed app found on worker devices")

    def test_unknown_package_features_still_valid(self, study, observations):
        obs = observations[0]
        features = _app_row(obs, "com.never.installed", study.catalog)
        assert features["inner_retention_days"] != features["inner_retention_days"]  # NaN
        assert features["n_install_events"] == 0.0

    def test_promo_apps_separable_from_personal(self, study, observations):
        """The core claim: promotion instances differ on review features."""
        promo_totals, personal_totals = [], []
        for obs in observations:
            truth = {
                rec.package: rec.promo_install
                for rec in obs.participant.device.installed.values()
            }
            for app in obs.initial_apps[:30]:
                package = app["package"]
                if app["preinstalled"] or package not in truth:
                    continue
                features = _app_row(obs, package, study.catalog)
                target = promo_totals if truth[package] else personal_totals
                target.append(features["accounts_reviewed_total"])
        assert np.mean(promo_totals) > np.mean(personal_totals) + 0.5


class TestDeviceFeatures:
    def test_vector_matches_names(self, observations):
        matrix = device_feature_matrix(observations[:4], [0.5] * 4)
        assert matrix.shape == (4, len(DEVICE_FEATURE_NAMES))
        assert device_feature_matrix(observations[:2]).shape == (
            2,
            len(DEVICE_FEATURE_NAMES),
        )
        assert _device_row(observations[0], 0.5)["app_suspiciousness"] == 0.5

    def test_suspiciousness_nan_when_missing(self, observations):
        features = _device_row(observations[0], None)
        assert math.isnan(features["app_suspiciousness"])

    def test_workers_dominate_review_features(self, observations):
        def mean_feature(name, worker):
            values = [
                _device_row(o)[name]
                for o in observations
                if o.is_worker == worker
            ]
            return np.mean(values)

        assert mean_feature("total_reviews", True) > mean_feature("total_reviews", False) * 5
        assert mean_feature("n_stopped_apps", True) > mean_feature("n_stopped_apps", False)
        assert mean_feature("n_gmail_accounts", True) > mean_feature("n_gmail_accounts", False)


class TestTruncation:
    def test_truncated_limits_active_days(self, observations):
        obs = observations[0]
        clipped = obs.truncated(1.0)
        assert clipped.active_days == 1
        assert obs.active_days >= clipped.active_days

    def test_truncated_runs_within_cutoff(self, observations):
        obs = max(observations, key=lambda o: o.active_days)
        clipped = obs.truncated(2.0)
        cutoff = obs.installed_at + 2.0 * 86_400.0
        for run in [*clipped.fast_runs, *clipped.slow_runs]:
            assert run["start"] < cutoff
            assert run["end"] <= cutoff
        for event in clipped.app_changes:
            assert event["timestamp"] < cutoff

    def test_truncated_preserves_reviews(self, observations):
        obs = observations[0]
        clipped = obs.truncated(1.0)
        assert clipped.device_reviews == obs.device_reviews
        assert clipped.google_ids == obs.google_ids

    def test_truncation_reduces_snapshots(self, observations):
        obs = max(observations, key=lambda o: o.active_days)
        if obs.active_days < 3:
            pytest.skip("no long-running device in this cohort")
        clipped = obs.truncated(1.0)
        assert clipped.total_snapshots < obs.total_snapshots

    def test_original_untouched(self, observations):
        obs = observations[0]
        before = obs.total_snapshots
        obs.truncated(1.0)
        assert obs.total_snapshots == before
