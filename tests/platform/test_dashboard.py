"""Tests for the internal dashboard (monitoring + validation)."""

import pytest

from repro.platform.dashboard import Dashboard


@pytest.fixture(scope="module")
def dashboard(study):
    return Dashboard(study.server)


class TestMonitoring:
    def test_health_for_every_install(self, study, dashboard):
        for install_id in study.server.install_ids():
            health = dashboard.install_health(install_id)
            assert health is not None
            assert health.snapshots > 0
            assert health.active_days > 0

    def test_overview_totals_consistent(self, study, dashboard):
        overview = dashboard.overview()
        assert overview["installs"] == len(study.server.install_ids())
        assert overview["healthy_installs"] <= overview["installs"]
        assert 0.0 <= overview["healthy_fraction"] <= 1.0
        assert overview["records_inserted"] > 0

    def test_overview_counts_are_ints(self, dashboard):
        overview = dashboard.overview()
        counts = {k: v for k, v in overview.items() if k != "healthy_fraction"}
        assert len(counts) == 8
        for name, value in counts.items():
            assert type(value) is int, name
        assert type(overview["healthy_fraction"]) is float

    def test_most_installs_healthy(self, dashboard):
        overview = dashboard.overview()
        assert overview["healthy_fraction"] >= 0.9

    def test_lagging_installs_below_threshold(self, dashboard):
        lagging = dashboard.lagging_installs()
        for health in lagging:
            assert health.snapshots_per_day < 100.0
        healthy = sum(h.healthy for h in dashboard.fleet_health())
        assert len(lagging) + healthy == dashboard.overview()["installs"]

    def test_unknown_install_returns_none(self, dashboard):
        assert dashboard.install_health("0000000000") is None

    def test_fleet_health_computed_once_and_shared(self, study):
        dashboard = Dashboard(study.server)
        calls = {"n": 0}
        original = Dashboard.install_health

        def counting(self, install_id):
            calls["n"] += 1
            return original(self, install_id)

        Dashboard.install_health = counting
        try:
            dashboard.overview()
            dashboard.lagging_installs()
            dashboard.overview()
        finally:
            Dashboard.install_health = original
        # One pass over the fleet serves every monitoring caller.
        assert calls["n"] == len(study.server.install_ids())

    def test_overview_reports_malformed_split(self, dashboard):
        overview = dashboard.overview()
        assert "malformed_chunks" in overview
        assert "malformed_records" in overview

    def test_permission_reporting_flags(self, study, dashboard):
        accounts_reported = usage_reported = 0
        for install_id in study.server.install_ids():
            health = dashboard.install_health(install_id)
            accounts_reported += health.reported_accounts
            usage_reported += health.reported_usage
        # Grant rates are ~80% / ~96%, so both flags vary across installs.
        total = len(study.server.install_ids())
        assert 0 < accounts_reported <= total
        assert 0 < usage_reported <= total


class TestValidation:
    def test_clean_study_validates(self, dashboard):
        issues = dashboard.validate()
        # A healthy simulated deployment produces no validation issues.
        assert issues == []

    def test_orphan_uninstall_detected(self, rng):
        """Plant a corrupt uninstall event in a fresh mini-deployment."""
        from repro.platform.mobile_app import RacketStoreApp
        from repro.platform.server import RacketStoreServer
        from repro.platform.transport import Transport
        from repro.simulation.device import SimDevice

        server = RacketStoreServer()
        device = SimDevice("regular", is_worker=False, rng=rng)
        app = RacketStoreApp(device, server.issue_participant_id(), rng)
        transport = Transport(server)
        app.sign_in(0.0, rng=rng, server=server, transport=transport)
        app.collect_day(0.0, rng=rng, transport=transport)
        server.store["app_changes"].insert(
            {
                "_type": "app_change",
                "install_id": app.install_id,
                "participant_id": app.participant_id,
                "timestamp": 1.0,
                "action": "uninstall",
                "package": "com.never.seen.pkg",
                "install_time": None,
                "apk_hash": None,
                "n_granted": 0,
                "n_denied": 0,
                "n_normal_permissions": 0,
                "n_dangerous_permissions": 0,
            }
        )
        issues = Dashboard(server).validate()
        assert any(i.check == "uninstall_without_install" for i in issues)
