"""Tests for the Play Store catalog and permission model."""

import numpy as np
import pytest

from repro.playstore.catalog import PREINSTALLED_PACKAGES, Catalog
from repro.playstore.permissions import (
    DANGEROUS_PERMISSIONS,
    NORMAL_PERMISSIONS,
    PermissionProfile,
    sample_permission_profile,
)


@pytest.fixture()
def catalog(rng):
    return Catalog(rng)


class TestCatalog:
    def test_preinstalled_registered_at_construction(self, catalog):
        assert len(catalog.preinstalled()) == len(PREINSTALLED_PACKAGES)
        assert "com.android.vending" in catalog

    def test_popular_apps_meet_review_threshold(self, catalog):
        for _ in range(50):
            app = catalog.add_popular_app()
            assert app.review_count >= 15_000
            assert app.on_play_store

    def test_promoted_apps_are_obscure(self, catalog):
        for _ in range(50):
            app = catalog.add_promoted_app()
            assert app.review_count < 15_000

    def test_promoted_malware_rate_near_eight_percent(self, catalog):
        apps = [catalog.add_promoted_app() for _ in range(400)]
        assert 0.04 <= np.mean([a.is_malware for a in apps]) <= 0.12

    def test_third_party_apps_off_play(self, catalog):
        app = catalog.add_third_party_app()
        assert not app.on_play_store
        assert app not in catalog.hosted_on_play()

    def test_antivirus_category_join(self, catalog):
        for _ in range(4):
            catalog.add_antivirus_app()
        assert len(catalog.antivirus_apps()) == 4
        assert all(a.category == "ANTIVIRUS" for a in catalog.antivirus_apps())

    def test_unique_packages(self, catalog):
        apps = [catalog.add_popular_app() for _ in range(100)]
        assert len({a.package for a in apps}) == 100

    def test_apk_hashes_stable_and_distinct(self, catalog):
        a = catalog.add_popular_app()
        b = catalog.add_popular_app()
        assert a.current_apk_hash != b.current_apk_hash
        assert catalog.get(a.package).current_apk_hash == a.current_apk_hash

    def test_update_unknown_package_raises(self, catalog):
        app = catalog.add_popular_app()
        ghost = app.with_counts(1, 1, 1.0)
        object.__setattr__(ghost, "package", "com.ghost.app")
        with pytest.raises(KeyError):
            catalog.update(ghost)

    def test_with_counts_returns_new_app(self, catalog):
        app = catalog.add_popular_app()
        boosted = app.with_counts(app.install_count + 10, app.review_count + 5, 4.9)
        assert boosted is not app
        assert boosted.install_count == app.install_count + 10


class TestPermissions:
    def test_profile_counts(self):
        profile = PermissionProfile(
            normal=("android.permission.INTERNET",),
            dangerous=("android.permission.CAMERA", "android.permission.READ_SMS"),
        )
        assert profile.total == 3
        assert profile.n_dangerous == 2

    def test_sampled_profiles_valid(self, rng):
        for _ in range(50):
            profile = sample_permission_profile(rng)
            assert set(profile.dangerous) <= set(DANGEROUS_PERMISSIONS)
            assert set(profile.normal) <= set(NORMAL_PERMISSIONS)
            assert len(set(profile.normal + profile.dangerous)) == profile.total

    def test_aggressive_profiles_request_more_dangerous(self, rng):
        normal_mean = np.mean(
            [sample_permission_profile(rng).n_dangerous for _ in range(100)]
        )
        aggressive_mean = np.mean(
            [
                sample_permission_profile(rng, aggressive=True).n_dangerous
                for _ in range(100)
            ]
        )
        assert aggressive_mean > normal_mean + 2
