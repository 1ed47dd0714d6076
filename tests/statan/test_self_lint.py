"""The shipped tree must be statan-clean modulo the committed baseline,
and the CLI gate must catch a seeded-run-breaking injection."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.statan import load_baseline, partition
from tests.helpers import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "statan-baseline.json"


@pytest.fixture(scope="module")
def src_findings():
    return analyze_paths([SRC], n_jobs=1)


class TestSelfLint:
    def test_src_is_clean_modulo_committed_baseline(self, src_findings):
        new, _grandfathered, stale = partition(src_findings, load_baseline(BASELINE))
        assert new == [], "\n".join(f.format_text() for f in new)
        assert stale == [], (
            "baseline entries no longer match the tree; run "
            "`python -m repro lint --update-baseline`"
        )

    def test_src_findings_identical_across_worker_counts(self, src_findings):
        # The whole shipped tree, not only a toy one: rules, positions,
        # messages and fingerprints, byte for byte.
        parallel = analyze_paths([SRC], n_jobs=2)
        assert [f.to_json() for f in parallel] == [f.to_json() for f in src_findings]

    def test_committed_baseline_is_warning_only(self):
        # Errors (DET/BUG rules) must be fixed, never grandfathered.
        baseline = load_baseline(BASELINE)
        assert {entry["rule"] for entry in baseline.entries} <= {"ML001", "OBS001"}

    def test_cli_exits_zero_on_shipped_tree(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out


class TestInjectionGate:
    """Copy a slice of the tree, inject a violation, expect a red gate."""

    def _lint(self, root: Path, baseline: Path) -> int:
        return main(["lint", str(root), "--baseline", str(baseline)])

    @pytest.fixture()
    def fake_tree(self, tmp_path) -> Path:
        sim = tmp_path / "simulation"
        sim.mkdir()
        (sim / "world.py").write_text(
            (SRC / "repro" / "simulation" / "world.py").read_text()
        )
        return tmp_path

    def test_clean_copy_passes(self, fake_tree, tmp_path, capsys):
        assert self._lint(fake_tree, tmp_path / "b.json") == 0

    def test_bare_random_injection_fails(self, fake_tree, tmp_path, capsys):
        world = fake_tree / "simulation" / "world.py"
        world.write_text(
            world.read_text()
            + "\nimport random\n\ndef _jitter():\n    return random.random()\n"
        )
        assert self._lint(fake_tree, tmp_path / "b.json") == 1
        assert "DET001" in capsys.readouterr().out

    def test_wall_clock_injection_fails(self, fake_tree, tmp_path, capsys):
        world = fake_tree / "simulation" / "world.py"
        world.write_text(
            world.read_text() + "\nimport time\n\ndef _now():\n    return time.time()\n"
        )
        assert self._lint(fake_tree, tmp_path / "b.json") == 1
        assert "DET002" in capsys.readouterr().out

    def test_unsorted_listing_injection_fails(self, fake_tree, tmp_path, capsys):
        world = fake_tree / "simulation" / "world.py"
        world.write_text(
            world.read_text()
            + "\nimport os\n\ndef _chunks(d):\n    return [p for p in os.listdir(d)]\n"
        )
        assert self._lint(fake_tree, tmp_path / "b.json") == 1
        assert "DET003" in capsys.readouterr().out

    def test_two_hop_rng_injection_fails_interprocedurally(
        self, fake_tree, tmp_path, capsys
    ):
        world = fake_tree / "simulation" / "world.py"
        world.write_text(
            world.read_text()
            + "\nimport numpy as _inj_np\n"
            "\ndef _inj_noise():\n    return _inj_np.random.normal()\n"
            "\ndef _inj_middle():\n    return _inj_noise()\n"
            "\ndef _inj_entry():\n    return _inj_middle()\n"
        )
        assert self._lint(fake_tree, tmp_path / "b.json") == 1
        out = capsys.readouterr().out
        assert "DET004" in out
        assert "_inj_entry" in out  # two hops above the sink

    def test_generator_capturing_closure_to_executor_fails(
        self, fake_tree, tmp_path, capsys
    ):
        world = fake_tree / "simulation" / "world.py"
        world.write_text(
            world.read_text()
            + "\nfrom repro.parallel import ProcessExecutor as _InjExec\n"
            "import numpy as _inj_np2\n"
            "\ndef _inj_submit(tasks):\n"
            "    rng = _inj_np2.random.default_rng(1)\n"
            "    def _inj_worker(t):\n"
            "        return rng.normal() + t\n"
            "    ex = _InjExec(2)\n"
            "    return ex.map(_inj_worker, [(t,) for t in tasks])\n"
        )
        assert self._lint(fake_tree, tmp_path / "b.json") == 1
        assert "PAR001" in capsys.readouterr().out

    def test_undeclared_field_query_fails(self, fake_tree, tmp_path, capsys):
        frames = fake_tree / "frames"
        frames.mkdir()
        (frames / "schema.py").write_text(
            "from repro.frames.schema import Field, RecordSchema\n"
            '\nRUN_SCHEMA = RecordSchema("run", (Field("run_id", "str"),))\n'
            '\nBY_COLLECTION = {"runs": RUN_SCHEMA}\n'
        )
        world = fake_tree / "simulation" / "world.py"
        world.write_text(
            world.read_text()
            + "\ndef _inj_query(store):\n"
            '    return store["runs"].find({"not_a_field": 1})\n'
        )
        assert self._lint(fake_tree, tmp_path / "b.json") == 1
        assert "SCH001" in capsys.readouterr().out


class TestCliOptions:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003", "DET004", "BUG001", "ML001",
            "OBS001", "PAR001", "PAR002", "SCH001", "SCH002",
        ):
            assert rule_id in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def f(xs=[]):\n    return xs\n")
        code = main(["lint", str(tmp_path), "--format", "json",
                     "--baseline", str(tmp_path / "b.json")])
        assert code == 1
        out = capsys.readouterr().out
        assert '"rule": "BUG001"' in out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def f(xs=[]):\n    return xs\n")
        baseline = tmp_path / "b.json"
        assert main(["lint", str(tmp_path), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "does/not/exist"]) == 2
