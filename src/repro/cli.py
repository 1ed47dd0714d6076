"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``    run a study and print the cohort/dataset summary
``experiment``  regenerate one paper table/figure (``--list`` to enumerate)
``report``      regenerate every table/figure
``train``       train the app+device detectors and export them to JSON
``classify``    load exported detectors and scan a fresh simulated cohort
``dashboard``   print the internal dashboard overview + validation issues
``findings``    check every §6-§8 paper finding against a fresh run
``export-figures``  write the raw series behind each figure as CSV
``profile``     run a full study + report with tracing on; print the
                span-tree timing report and the top-N slowest spans
``bench sim``   time the day engine serial vs sharded, assert identical
                studies and gate the speedup (-> BENCH_sim.json); the
                end-to-end, per-layer benchmark is ``bench/run.py``
``chaos``       fault-injection gate: run the same seeded study under a
                clean plan and escalating fault plans (loss, corruption,
                ack loss, receive crashes, store rejections, overload)
                and assert the study digest is byte-identical at every
                worker count; ``--smoke`` for the CI-sized cohort
``lint``        run the repro.statan static analyzer (per-file and
                whole-program determinism/invariants rules) over the
                source tree; ``--n-jobs``/``--changed`` scale and scope
                the run

``simulate``/``report``/``train``/``profile`` accept ``--metrics-out
FILE`` to enable the metrics registry and archive its JSON export.
The global ``--n-jobs N`` flag (default: the ``REPRO_N_JOBS``
environment variable, else serial) fans simulation day phases, CV
folds and forest trees out across N worker processes; outputs are
bit-identical at any worker count (DESIGN.md §8, §12).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import obs
from .core.model_io import export_detector, import_detector
from .core.observations import build_observations
from .core.ondevice import OnDeviceDetector
from .experiments import EXPERIMENTS, Workbench, run_experiment, run_many
from .platform.dashboard import Dashboard
from .reporting import render_table
from .simulation import SimulationConfig, run_study
from .statan.cli import add_lint_arguments, run_lint

__all__ = ["main", "build_parser"]

_SCALES = ("small", "default", "paper")


def _config_for(scale: str, seed: int | None) -> SimulationConfig:
    config = {
        "small": SimulationConfig.small(),
        "default": SimulationConfig(),
        "paper": SimulationConfig.paper_scale(),
    }[scale]
    if seed is not None:
        config = config.scaled(seed=seed)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RacketStore (IMC 2021) reproduction toolkit",
    )
    parser.add_argument("--scale", choices=_SCALES, default="small",
                        help="cohort scale (default: small)")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument(
        "--n-jobs", type=int, default=None, metavar="N",
        help="worker processes for simulation day phases / CV folds / "
        "forest trees (default: $REPRO_N_JOBS, else serial; <= 0 means "
        "all cores); outputs are identical at any worker count",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_metrics_out(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help="enable the metrics registry and write its JSON export here",
        )

    simulate = sub.add_parser("simulate", help="run a study and summarise the dataset")
    add_metrics_out(simulate)

    experiment = sub.add_parser("experiment", help="regenerate one table/figure")
    experiment.add_argument("experiment_id", nargs="?", help="e.g. table1, fig07")
    experiment.add_argument("--list", action="store_true", help="list experiment ids")

    report = sub.add_parser("report", help="regenerate every table and figure")
    add_metrics_out(report)

    train = sub.add_parser("train", help="train detectors and export JSON models")
    train.add_argument("--out", default="detectors.json", help="output path")
    add_metrics_out(train)

    profile = sub.add_parser(
        "profile", help="run a study + every experiment under the profiler"
    )
    profile.add_argument(
        "--top", type=int, default=12, help="size of the slowest-spans table"
    )
    profile.add_argument(
        "--prometheus", action="store_true",
        help="also print the Prometheus text exposition",
    )
    add_metrics_out(profile)

    bench = sub.add_parser(
        "bench",
        help="day-engine speedup/identity gate; writes BENCH_sim.json",
    )
    bench.add_argument(
        "suite", choices=("sim",),
        help="sim: serial-vs-sharded simulation day phases",
    )
    bench.add_argument(
        "--smoke", action="store_true", help="CI-sized study",
    )
    bench.add_argument(
        "--out", default="BENCH_sim.json",
        help="output path (default: BENCH_sim.json)",
    )
    bench.add_argument(
        "--baseline", default=None,
        help="speedup-floor file for the regression gate (default: "
        "bench-baseline.json when --smoke; skipped if missing)",
    )

    classify = sub.add_parser("classify", help="scan a fresh cohort with exported models")
    classify.add_argument("--models", default="detectors.json", help="exported models path")

    sub.add_parser("dashboard", help="print the data-collection dashboard")

    sub.add_parser("findings", help="check every §6-§8 paper finding")

    export = sub.add_parser(
        "export-figures", help="write the raw series behind each figure as CSV"
    )
    export.add_argument("--out", default="figure_data", help="output directory")

    write_exp = sub.add_parser(
        "write-experiments", help="regenerate EXPERIMENTS.md from a fresh run"
    )
    write_exp.add_argument("--out", default="EXPERIMENTS.md", help="output path")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection gate: same seeded study under escalating "
        "fault plans must reproduce the clean study digest",
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help="CI-sized cohort (seconds per run)",
    )
    chaos.add_argument(
        "--out", default="CHAOS.json",
        help="JSON report path (written on failure too; default CHAOS.json)",
    )

    lint = sub.add_parser(
        "lint", help="run the statan determinism/invariants linter"
    )
    add_lint_arguments(lint)
    return parser


def _cmd_simulate(args) -> int:
    data = run_study(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    eligible = data.eligible_participants(min_days=2)
    workers = [p for p in eligible if p.is_worker]
    print(
        render_table(
            ["metric", "value"],
            [
                ("participants", len(data.participants)),
                ("unique devices (fingerprinted)", len(data.server.unique_devices())),
                ("eligible devices (>=2 days)", len(eligible)),
                ("worker devices", len(workers)),
                ("regular devices", len(eligible) - len(workers)),
                ("snapshot records ingested", data.server.stats.records_inserted),
                ("reviews crawled", data.review_crawler.collected_total()),
                ("campaigns on the board", len(data.board.campaigns())),
                ("participant payout (USD)", round(data.server.total_payout_usd(), 2)),
            ],
        )
    )
    return 0


def _cmd_experiment(args) -> int:
    if args.list or not args.experiment_id:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    if args.experiment_id not in EXPERIMENTS:
        print(
            f"error: unknown experiment {args.experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    workbench = Workbench(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    print(run_experiment(args.experiment_id, workbench).render())
    return 0


def _cmd_report(args) -> int:
    workbench = Workbench(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    for report in run_many(list(EXPERIMENTS), workbench):
        print(report.render())
        print()
    return 0


def _cmd_train(args) -> int:
    workbench = Workbench(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    result = workbench.pipeline_result
    payload = (
        '{"app": '
        + export_detector(result.app_model)
        + ', "device": '
        + export_detector(result.device_model)
        + "}"
    )
    with open(args.out, "w") as handle:
        handle.write(payload)
    print(f"wrote app + device detectors to {args.out}")
    rows = result.device_evaluation.table_rows()
    print(render_table(["algorithm", "precision", "recall", "F1"], rows[:1]))
    return 0


def _cmd_classify(args) -> int:
    with open(args.models) as handle:
        payload = json.load(handle)
    app_model = import_detector(json.dumps(payload["app"]))
    device_model = import_detector(json.dumps(payload["device"]))
    detector = OnDeviceDetector(app_model, device_model)

    data = run_study(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    observations = build_observations(data, data.eligible_participants(min_days=2))
    correct = 0
    flagged = 0
    for obs in observations:
        report = detector.scan(obs, data.catalog, data.vt_client)
        flagged += report.device_flagged
        correct += report.device_flagged == obs.is_worker
    print(
        f"scanned {len(observations)} devices: {flagged} flagged, "
        f"accuracy vs ground truth {correct / len(observations):.1%}"
    )
    return 0


def _cmd_dashboard(args) -> int:
    data = run_study(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    dashboard = Dashboard(data.server)
    overview = dashboard.overview()
    print(render_table(["metric", "value"], sorted(overview.items())))
    issues = dashboard.validate()
    print(f"validation issues: {len(issues)}")
    for issue in issues[:10]:
        print(f"  [{issue.install_id}] {issue.check}: {issue.detail}")
    lagging = dashboard.lagging_installs()
    print(f"installs below 100 snapshots/day: {len(lagging)}")
    return 0


def _cmd_findings(args) -> int:
    from .experiments.findings import check_findings

    workbench = Workbench(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    results = check_findings(workbench)
    print(
        render_table(
            ["id", "section", "status", "measured"],
            [r.row() for r in results],
        )
    )
    holding = sum(r.holds for r in results)
    print(f"{holding}/{len(results)} paper findings hold on this run")
    return 0 if holding == len(results) else 1


def _cmd_write_experiments(args) -> int:
    from .experiments.report_writer import generate_experiments_md

    workbench = Workbench(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    generate_experiments_md(workbench, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_profile(args) -> int:
    obs.configure(metrics=True, tracing=True)
    workbench = Workbench(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    workbench.data  # simulation + ingest + crawl run under their own spans
    for experiment_id in EXPERIMENTS:
        run_experiment(experiment_id, workbench)

    tracer = obs.tracer()
    registry = obs.registry()
    print("== span tree (wall time) ==")
    print(tracer.render())
    print()
    print(f"== top {args.top} slowest spans ==")
    print(tracer.render_slowest(args.top))
    print()
    print("== pipeline counters ==")
    counters = registry.to_json()["counters"]
    rows = [(name, int(value)) for name, value in sorted(counters.items())]
    print(render_table(["counter", "value"], rows))
    print()
    print("== per-model fit time (seconds per CV fold) ==")
    fit_rows = []
    for hist in registry.series("ml_fit_seconds"):
        labels = dict(hist.labels)
        fit_rows.append(
            (
                labels.get("model", "?"),
                hist.count,
                round(hist.mean, 4),
                round(hist.quantile(0.95), 4),
                round(hist.sum, 3),
            )
        )
    print(render_table(["model", "folds", "mean", "p95", "total"],
                       sorted(fit_rows, key=lambda r: -r[4])))
    if args.prometheus:
        print()
        print(registry.render_prometheus())
    return 0


def _cmd_bench(args) -> int:
    from .benchmark import run_sim_bench

    return run_sim_bench(
        seed=args.seed if args.seed is not None else 0,
        n_jobs=args.n_jobs,
        smoke=args.smoke,
        out=args.out,
        baseline=args.baseline,
    )


def _cmd_chaos(args) -> int:
    from .faults.chaos import run_chaos

    return run_chaos(
        _config_for(args.scale, args.seed),
        smoke=args.smoke,
        n_jobs=args.n_jobs,
        out=args.out,
    )


def _cmd_export_figures(args) -> int:
    from .reporting.series import export_figure_data

    workbench = Workbench(_config_for(args.scale, args.seed), n_jobs=args.n_jobs)
    written = export_figure_data(workbench, args.out)
    print(
        render_table(
            ["figure", "rows"], sorted(written.items())
        )
    )
    print(f"wrote {len(written)} CSV files to {args.out}/")
    return 0


_COMMANDS = {
    "lint": run_lint,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "dashboard": _cmd_dashboard,
    "findings": _cmd_findings,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
    "chaos": _cmd_chaos,
    "export-figures": _cmd_export_figures,
    "write-experiments": _cmd_write_experiments,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # argparse already rejects unknown commands, so the handler lookup
    # lives outside any try/except: a KeyError raised *inside* a handler
    # must propagate instead of being misreported as an unknown command.
    handler = _COMMANDS[args.command]
    metrics_out = getattr(args, "metrics_out", None)
    was_enabled = obs.enabled()
    if metrics_out and not obs.metrics_enabled():
        obs.configure(metrics=True, tracing=True)
    try:
        code = handler(args)
        if metrics_out:
            try:
                with open(metrics_out, "w") as handle:
                    json.dump(
                        obs.registry().to_json(), handle, indent=2, sort_keys=True
                    )
            except OSError as exc:
                print(f"error: cannot write metrics to {metrics_out}: {exc}",
                      file=sys.stderr)
                return 1
            print(f"wrote metrics to {metrics_out}", file=sys.stderr)
    finally:
        # Commands (profile, --metrics-out) may enable observability;
        # restore the no-op default so an embedding process is unaffected.
        if not was_enabled and obs.enabled():
            obs.reset()
    return code


if __name__ == "__main__":
    sys.exit(main())
