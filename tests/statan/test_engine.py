"""Engine mechanics: suppressions, fingerprints, baseline round-trip,
reporters."""

import json

from repro.statan import (
    analyze_source,
    collect_suppressions,
    load_baseline,
    partition,
    save_baseline,
)
from repro.statan.reporters import LintResult, render_json, render_text
from tests.helpers import analyze_paths

DIRTY = "import random\n\ndef f():\n    return random.random()\n"


class TestSuppressions:
    def test_same_line_disable(self):
        src = (
            "import random\n\n"
            "def f():\n"
            "    return random.random()  # statan: disable=DET001\n"
        )
        assert analyze_source(src) == []

    def test_disable_only_matching_rule(self):
        src = (
            "import random\n\n"
            "def f():\n"
            "    return random.random()  # statan: disable=DET002\n"
        )
        assert [f.rule for f in analyze_source(src)] == ["DET001"]

    def test_disable_list(self):
        src = (
            "import random\n\n"
            "def f(xs=[]):\n"
            "    return random.random(), xs  # statan: disable=DET001,BUG001\n"
        )
        # BUG001 anchors on the def line, not the suppressed line.
        assert [f.rule for f in analyze_source(src)] == ["BUG001"]

    def test_file_level_disable(self):
        src = "# statan: disable-file=DET001\n" + DIRTY
        assert analyze_source(src) == []

    def test_file_level_all(self):
        src = "# statan: disable-file=ALL\n" + DIRTY + "def g(xs=[]):\n    return xs\n"
        assert analyze_source(src) == []

    def test_parse_helper(self):
        per_line, per_file = collect_suppressions(
            "x = 1  # statan: disable=DET001, ML001\n# statan: disable-file=BUG001\n"
        )
        assert per_line == {1: {"DET001", "ML001"}}
        assert per_file == {"BUG001"}


class TestFingerprints:
    def test_stable_across_line_shifts(self):
        base = analyze_source(DIRTY, path="m.py")
        shifted = analyze_source("# a comment\n\n" + DIRTY, path="m.py")
        assert [f.fingerprint for f in base] == [f.fingerprint for f in shifted]

    def test_duplicate_snippets_get_distinct_fingerprints(self):
        src = (
            "import random\n\n"
            "def f():\n"
            "    return random.random()\n\n"
            "def g():\n"
            "    return random.random()\n"
        )
        findings = analyze_source(src, path="m.py")
        assert len(findings) == 2
        assert findings[0].fingerprint != findings[1].fingerprint

    def test_path_is_part_of_identity(self):
        a = analyze_source(DIRTY, path="a.py")[0]
        b = analyze_source(DIRTY, path="b.py")[0]
        assert a.fingerprint != b.fingerprint


class TestBaselineRoundTrip:
    def test_round_trip_silences_then_resurfaces(self, tmp_path):
        module = tmp_path / "pkg" / "mod.py"
        module.parent.mkdir()
        module.write_text(DIRTY)
        baseline_file = tmp_path / "baseline.json"

        findings = analyze_paths([tmp_path / "pkg"])
        assert [f.rule for f in findings] == ["DET001"]

        save_baseline(baseline_file, findings)
        baseline = load_baseline(baseline_file)
        new, grandfathered, stale = partition(findings, baseline)
        assert new == [] and len(grandfathered) == 1 and stale == []

        # A *new* violation is not masked by the old baseline entry.
        module.write_text(DIRTY + "\ndef g(xs=[]):\n    return xs\n")
        findings = analyze_paths([tmp_path / "pkg"])
        new, grandfathered, stale = partition(findings, load_baseline(baseline_file))
        assert [f.rule for f in new] == ["BUG001"]
        assert [f.rule for f in grandfathered] == ["DET001"]

    def test_fixed_finding_reported_stale(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(DIRTY)
        baseline_file = tmp_path / "baseline.json"
        save_baseline(baseline_file, analyze_paths([tmp_path]))

        module.write_text("def f(rng):\n    return rng.integers(0, 2)\n")
        new, grandfathered, stale = partition(
            analyze_paths([tmp_path]), load_baseline(baseline_file)
        )
        assert new == [] and grandfathered == []
        assert [e["rule"] for e in stale] == ["DET001"]

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "absent.json")
        assert len(baseline) == 0


class TestReporters:
    def _result(self, tmp_path) -> LintResult:
        (tmp_path / "mod.py").write_text(DIRTY)
        findings = analyze_paths([tmp_path])
        return LintResult(findings, [], [], files_checked=1)

    def test_text_report_has_location_and_summary(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "mod.py:4:" in text
        assert "DET001" in text
        assert "1 new finding(s)" in text

    def test_json_report_is_machine_readable(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert payload["summary"]["new"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["baselined"] is False
        assert finding["fingerprint"]

    def test_exit_code_tracks_new_findings(self, tmp_path):
        result = self._result(tmp_path)
        assert result.exit_code == 1
        assert LintResult([], result.new, [], 1).exit_code == 0


class TestDeterministicFileOrder:
    def test_directory_walk_is_sorted(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text(DIRTY)
        findings = analyze_paths([tmp_path])
        assert [f.path for f in findings] == ["a.py", "b.py", "c.py"]
