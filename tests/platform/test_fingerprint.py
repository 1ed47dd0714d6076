"""Tests for Appendix-A snapshot fingerprinting / device coalescing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.fingerprint import (
    InstallFingerprint,
    coalesce_installs,
    jaccard,
)


def fp(install_id, first, last, android_id=None, apps=(), accounts=()):
    return InstallFingerprint(
        install_id=install_id,
        participant_id="p" + install_id,
        android_id=android_id,
        first_seen=first,
        last_seen=last,
        app_installs=frozenset(apps),
        accounts=frozenset(accounts),
    )


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0

    def test_disjoint_sets(self):
        assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0

    def test_empty_sets(self):
        assert jaccard(frozenset(), frozenset()) == 0.0

    def test_partial_overlap(self):
        assert jaccard(frozenset("abc"), frozenset("bcd")) == pytest.approx(0.5)


class TestCoalescing:
    def test_same_android_id_sequential_merged(self):
        a = fp("1", 0, 10, android_id="X")
        b = fp("2", 20, 30, android_id="X")
        clusters = coalesce_installs([a, b])
        assert len(clusters) == 1
        assert clusters[0].install_ids == ["1", "2"]

    def test_different_android_ids_not_merged(self):
        clusters = coalesce_installs(
            [fp("1", 0, 10, android_id="X"), fp("2", 20, 30, android_id="Y")]
        )
        assert len(clusters) == 2

    def test_overlapping_intervals_never_merged(self):
        """Two concurrent installs cannot be one device, even with the
        same Android ID reported (spoofing/shared id)."""
        clusters = coalesce_installs(
            [fp("1", 0, 50, android_id="X"), fp("2", 25, 60, android_id="X")]
        )
        assert len(clusters) == 2

    def test_missing_android_id_app_similarity_merges(self):
        apps = {(f"com.app{i}", float(i)) for i in range(10)}
        a = fp("1", 0, 10, apps=apps)
        b = fp("2", 20, 30, apps=apps | {("com.extra", 99.0)})
        assert len(coalesce_installs([a, b])) == 1

    def test_missing_android_id_low_similarity_distinct(self):
        a = fp("1", 0, 10, apps={("a", 1.0), ("b", 2.0)})
        b = fp("2", 20, 30, apps={("c", 1.0), ("d", 2.0)})
        assert len(coalesce_installs([a, b])) == 2

    def test_account_similarity_merges(self):
        accounts = {f"user{i}@gmail.com" for i in range(10)}
        a = fp("1", 0, 10, accounts=accounts)
        b = fp("2", 20, 30, accounts=accounts)
        assert len(coalesce_installs([a, b])) == 1

    def test_threshold_boundary_not_merged(self):
        """Jaccard exactly at the threshold must NOT merge (strict >)."""
        # 9 shared of 16 total = 0.5625 exactly.
        shared = {(f"s{i}", float(i)) for i in range(9)}
        a = fp("1", 0, 10, apps=shared | {(f"a{i}", 0.0) for i in range(3)})
        b = fp("2", 20, 30, apps=shared | {(f"b{i}", 0.0) for i in range(4)})
        total = len(a.app_installs | b.app_installs)
        assert 9 / total == pytest.approx(0.5625)
        assert len(coalesce_installs([a, b])) == 2

    def test_three_installs_transitive_merge(self):
        a = fp("1", 0, 10, android_id="X")
        b = fp("2", 20, 30, android_id="X")
        c = fp("3", 40, 50, android_id="X")
        clusters = coalesce_installs([a, b, c])
        assert len(clusters) == 1
        assert clusters[0].install_ids == ["1", "2", "3"]

    def test_empty_input(self):
        assert coalesce_installs([]) == []

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_property_partition(self, device_assignment):
        """Coalescing yields a partition: every install appears in
        exactly one cluster."""
        installs = [
            fp(str(i), first=i * 100.0, last=i * 100.0 + 50.0, android_id=f"dev{d}")
            for i, d in enumerate(device_assignment)
        ]
        clusters = coalesce_installs(installs)
        seen = [iid for c in clusters for iid in c.install_ids]
        assert sorted(seen) == sorted(str(i) for i in range(len(installs)))

    def test_sequential_installs_same_device_count(self):
        """N sequential installs with one Android ID → one device."""
        installs = [
            fp(str(i), first=i * 100.0, last=i * 100.0 + 50.0, android_id="same")
            for i in range(5)
        ]
        assert len(coalesce_installs(installs)) == 1
