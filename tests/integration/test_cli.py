"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.simulation.config import DEFAULT_SEED


class TestParser:
    def test_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["--scale", "small", "simulate"])
        assert args.scale == "small"
        with pytest.raises(SystemExit):
            parser.parse_args(["--scale", "huge", "simulate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_accepts_only_the_sim_suite(self):
        parser = build_parser()
        args = parser.parse_args(
            ["bench", "sim", "--smoke", "--baseline", "bench-baseline.json",
             "--out", "BENCH_sim.json"]
        )
        assert (args.suite, args.smoke, args.baseline, args.out) == (
            "sim", True, "bench-baseline.json", "BENCH_sim.json"
        )
        for suite in ("ml", "lint", "all"):
            with pytest.raises(SystemExit):
                parser.parse_args(["bench", suite])


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["--scale", "small", "simulate"]) == 0
        out = capsys.readouterr().out
        assert "eligible devices" in out
        assert "reviews crawled" in out

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig15" in out

    def test_experiment_table3(self, capsys):
        assert main(["--scale", "small", "experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Snap. fingerprint" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["--scale", "small", "experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_handler_keyerror_propagates(self, monkeypatch):
        """A KeyError raised *inside* a command handler is a real bug and
        must not be misreported as an unknown command (exit code 2)."""
        import repro.cli as cli

        def boom(args):
            raise KeyError("missing-internal-key")

        monkeypatch.setitem(cli._COMMANDS, "simulate", boom)
        with pytest.raises(KeyError, match="missing-internal-key"):
            main(["--scale", "small", "simulate"])

    def test_dashboard(self, capsys):
        assert main(["--scale", "small", "dashboard"]) == 0
        out = capsys.readouterr().out
        assert "validation issues: 0" in out

    def test_train_then_classify(self, tmp_path, capsys):
        models = tmp_path / "detectors.json"
        assert main(["--scale", "small", "train", "--out", str(models)]) == 0
        payload = json.loads(models.read_text())
        assert set(payload) == {"app", "device"}

        assert main(
            ["--scale", "small", "--seed", "4242", "classify", "--models", str(models)]
        ) == 0
        out = capsys.readouterr().out
        assert "accuracy vs ground truth" in out

    def test_findings_command(self, capsys):
        code = main(["--scale", "small", "findings"])
        out = capsys.readouterr().out
        assert "paper findings hold" in out
        assert "F1" in out and "F18" in out
        assert code in (0, 1)  # small cohorts may miss a power-limited claim

    def test_export_figures(self, tmp_path, capsys):
        out = tmp_path / "figures"
        assert main(["--scale", "small", "export-figures", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "fig07_install_to_review.csv" in files
        assert "fig15_suspiciousness.csv" in files
        header = (out / "fig09_churn.csv").read_text().splitlines()[0]
        assert header == "install_id,group,daily_installs,daily_uninstalls"

    def test_report_accepts_n_jobs(self, capsys):
        assert main(["--scale", "small", "--n-jobs", "1", "report"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig15" in out


class TestTooSmallCohorts:
    """Small-world seeds whose cohort leaves a class or group too small:
    ``report`` exits 1 with one stderr line naming it, no traceback."""

    @pytest.mark.parametrize(
        "offset,named",
        [
            # One regular app instance: no stratified 2-fold split.
            (4, "app dataset: the regular class has size 1;"),
            # No regular-exclusive app for fig11 to compare.
            (5, "dangerous_permissions: the regular group has size 0 "),
        ],
    )
    def test_report_exits_with_one_line(self, capsys, offset, named):
        assert main(["--scale", "small", "--seed", str(DEFAULT_SEED + offset), "report"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert named in captured.err


class _Built(Exception):
    """Raised by the recording Workbench so a command stops once built."""


# Every command that builds a Workbench, with the arguments it needs.
WORKBENCH_COMMANDS = {
    "experiment": ["experiment", "table3"],
    "report": ["report"],
    "train": ["train", "--out", "{tmp}/detectors.json"],
    "findings": ["findings"],
    "write-experiments": ["write-experiments", "--out", "{tmp}/EXPERIMENTS.md"],
    "profile": ["profile"],
    "export-figures": ["export-figures", "--out", "{tmp}/figures"],
}


class TestNJobsForwarding:
    @pytest.mark.parametrize("command", sorted(WORKBENCH_COMMANDS))
    def test_workbench_gets_the_n_jobs_flag(self, command, monkeypatch, tmp_path):
        import repro.cli as cli

        seen = []

        def recording_workbench(config=None, pipeline=None, n_jobs=None):
            seen.append(n_jobs)
            raise _Built

        monkeypatch.setattr(cli, "Workbench", recording_workbench)
        argv = [arg.format(tmp=tmp_path) for arg in WORKBENCH_COMMANDS[command]]
        with pytest.raises(_Built):
            main(["--scale", "small", "--n-jobs", "3", *argv])
        assert seen == [3]

    def test_every_workbench_command_is_listed(self):
        import inspect

        import repro.cli as cli

        building = {
            name
            for name, handler in cli._COMMANDS.items()
            if "Workbench(" in inspect.getsource(handler)
        }
        assert building == set(WORKBENCH_COMMANDS)
