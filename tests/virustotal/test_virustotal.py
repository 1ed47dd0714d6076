"""Tests for the simulated VirusTotal panel and report client."""

import numpy as np
import pytest

from repro.simulation.calibration import DATASET
from repro.virustotal.client import VirusTotalClient
from repro.virustotal.engines import N_ENGINES, EnginePanel


@pytest.fixture()
def panel():
    return EnginePanel(np.random.default_rng(0))


class TestEnginePanel:
    def test_panel_size_matches_paper(self, panel):
        assert len(panel.engines) == N_ENGINES == 62

    def test_engine_names_unique(self, panel):
        names = [e.name for e in panel.engines]
        assert len(set(names)) == len(names)

    def test_scan_deterministic(self, panel):
        a = panel.scan("deadbeef", is_malware=True)
        b = panel.scan("deadbeef", is_malware=True)
        assert a.positives == b.positives
        assert a.flagged_by == b.flagged_by

    def test_malware_flagged_much_more(self, panel):
        malware = [panel.scan(f"mal{i}", True).positives for i in range(50)]
        benign = [panel.scan(f"ok{i}", False).positives for i in range(50)]
        assert np.mean(malware) > 20
        assert np.mean(benign) < 2


class TestVirusTotalClient:
    def make_client(self, panel, availability=1.0):
        return VirusTotalClient(
            panel, malware_oracle=lambda h: h.startswith("mal"), availability=availability
        )

    def test_report_for_known_hash(self, panel):
        client = self.make_client(panel)
        report = client.report("mal1")
        assert report is not None and report.positives > 5

    def test_benign_low_flags(self, panel):
        client = self.make_client(panel)
        assert client.positives("benign1") <= 3

    def test_availability_gap(self, panel):
        client = self.make_client(panel, availability=0.0)
        assert client.report("mal1") is None
        assert client.positives("mal1") == 0
        assert client.stats.unknown_hashes == 1

    def test_availability_deterministic_per_hash(self, panel):
        client_a = self.make_client(panel, availability=0.5)
        client_b = self.make_client(panel, availability=0.5)
        for i in range(30):
            h = f"hash{i}"
            assert (client_a.report(h) is None) == (client_b.report(h) is None)

    def test_cache_hit_counted(self, panel):
        client = self.make_client(panel)
        client.report("mal1")
        client.report("mal1")
        assert client.stats.lookups == 1
        assert client.stats.cached == 1

    def test_paper_availability_rate(self, panel, study):
        """The world's availability is the paper's 12431/18079 ≈ 0.688,
        and about that share of hashes has a report."""
        paper = DATASET.HASHES_WITH_VT_REPORT / DATASET.DISTINCT_APK_HASHES
        assert study.vt_client.availability == paper
        client = self.make_client(panel, availability=paper)
        hits = sum(1 for i in range(800) if client.report(f"h{i}") is not None)
        assert hits / 800 == pytest.approx(12_431 / 18_079, abs=0.06)
