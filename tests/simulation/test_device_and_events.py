"""Tests for SimDevice, events, clock and accounts."""

import pytest

from repro.playstore.catalog import Catalog
from repro.playstore.google_id import GmailDirectory
from repro.simulation.accounts import AccountFactory
from repro.simulation.clock import SECONDS_PER_DAY, day_index, days, hours
from repro.simulation.device import SimDevice
from repro.simulation.events import DeviceEvent, EventType, ForegroundSession
from repro.simulation.personas import dedicated_worker, organic_worker, regular_user


@pytest.fixture()
def catalog(rng):
    catalog = Catalog(rng)
    for _ in range(5):
        catalog.add_popular_app()
    return catalog


@pytest.fixture()
def device(rng):
    return SimDevice("regular", is_worker=False, rng=rng)


class TestClock:
    def test_day_index(self):
        assert day_index(0.0) == 0
        assert day_index(SECONDS_PER_DAY - 1) == 0
        assert day_index(SECONDS_PER_DAY) == 1

    def test_conversions(self):
        assert days(2) == 2 * SECONDS_PER_DAY
        assert hours(3) == 10_800.0


class TestEvents:
    def test_event_type_values_match_fig1(self):
        assert int(EventType.INSTALL) == 4
        assert int(EventType.REVIEW) == 3
        assert int(EventType.FOREGROUND) == 2
        assert int(EventType.UNINSTALL) == 1

    def test_session_duration(self):
        session = ForegroundSession(10.0, 70.0, "app")
        assert session.duration == 60.0

    def test_inverted_session_rejected(self):
        with pytest.raises(ValueError):
            ForegroundSession(70.0, 10.0, "app")

    def test_events_sort_by_time(self):
        a = DeviceEvent(5.0, EventType.INSTALL, "x")
        b = DeviceEvent(1.0, EventType.REVIEW, "y")
        assert sorted([a, b])[0] is b


class TestSimDevice:
    def test_install_starts_stopped(self, device, catalog, rng):
        app = catalog.add_popular_app()
        record = device.install(app, 0.0, grant_probability=1.0, rng=rng)
        assert record.stopped  # Android >= 3.1 semantics

    def test_open_clears_stopped(self, device, catalog, rng):
        app = catalog.add_popular_app()
        device.install(app, 0.0, grant_probability=1.0, rng=rng)
        session = device.open_app(app.package, 10.0, 60.0)
        assert session is not None
        assert not device.installed[app.package].stopped

    def test_open_unknown_app_returns_none(self, device):
        assert device.open_app("com.ghost", 0.0, 10.0) is None

    def test_stop_app(self, device, catalog, rng):
        app = catalog.add_popular_app()
        device.install(app, 0.0, grant_probability=1.0, rng=rng)
        device.open_app(app.package, 1.0, 5.0)
        assert device.stop_app(app.package, 10.0)
        assert app.package in device.stopped_packages()

    def test_uninstall_removes_and_logs(self, device, catalog, rng):
        app = catalog.add_popular_app()
        device.install(app, 0.0, grant_probability=1.0, rng=rng)
        assert device.uninstall(app.package, 5.0)
        assert app.package not in device.installed
        assert not device.uninstall(app.package, 6.0)
        assert device.uninstalled_log == [(5.0, app.package)]

    def test_permission_granting_probability(self, device, catalog, rng):
        app = catalog.add_popular_app()
        record = device.install(app, 0.0, grant_probability=0.0, rng=rng)
        # With grant prob 0 every dangerous permission is denied.
        assert record.n_denied == len(app.permissions.dangerous)
        assert set(record.granted_permissions) == set(app.permissions.normal)

    def test_full_grant(self, device, catalog, rng):
        app = catalog.add_popular_app()
        record = device.install(app, 0.0, grant_probability=1.0, rng=rng)
        assert record.n_denied == 0
        assert record.n_granted == app.permissions.total

    def test_timeline_filters_by_package(self, device, catalog, rng):
        a, b = catalog.add_popular_app(), catalog.add_popular_app()
        device.install(a, 0.0, 1.0, rng)
        device.install(b, 1.0, 1.0, rng)
        device.open_app(a.package, 2.0, 10.0)
        timeline = device.timeline(a.package)
        assert all(e.package == a.package for e in timeline)
        assert [e.event_type for e in timeline] == [EventType.INSTALL, EventType.FOREGROUND]

    def test_preinstalled_not_counted_as_user(self, device, catalog, rng):
        for app in catalog.preinstalled()[:3]:
            device.install(app, -100.0, 1.0, rng, preinstalled=True)
        assert device.user_installed() == []

    def test_unique_device_ids(self, rng):
        a = SimDevice("regular", False, rng)
        b = SimDevice("regular", False, rng)
        assert a.device_id != b.device_id

    def test_android_id_missing_mode(self, rng):
        device = SimDevice("regular", False, rng, android_id_missing=True)
        assert device.android_id is None


class TestAccountFactory:
    def test_gmail_registered_with_directory(self, rng):
        directory = GmailDirectory()
        factory = AccountFactory(directory, rng)
        account = factory.new_gmail()
        assert account.is_gmail
        assert directory.resolve(account.identifier) == account.google_id

    def test_unique_emails(self, rng):
        factory = AccountFactory(GmailDirectory(), rng)
        emails = {factory.new_gmail().identifier for _ in range(200)}
        assert len(emails) == 200

    def test_persona_account_mix(self, rng):
        factory = AccountFactory(GmailDirectory(), rng)
        for persona in (regular_user(), organic_worker(), dedicated_worker()):
            accounts = factory.accounts_for_persona(persona)
            gmail = [a for a in accounts if a.is_gmail]
            assert 1 <= len(gmail) <= persona.gmail_max
            services = {a.service for a in accounts if not a.is_gmail}
            assert services <= set(persona.service_pool)
