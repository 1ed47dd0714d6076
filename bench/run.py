"""Run the benchmark and print its metrics.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

Each workload runs in fresh ``python3 -m bench.child`` processes.
Untraced, ``SETUP_RUNS - 1`` children only set up, so ``setup_s`` is a
median, and one more sets up, runs timed iterations for ``--seconds`` and
checks every output; the ``end_to_end`` metrics of ``BENCHMARK.json`` come
from it.  Times are in reference-host seconds (``bench/hostspeed.py``).
With ``--trace`` one child alternates untraced and traced iterations and
reports the ``per_layer`` metrics instead.

Every metric is printed with its unit, one JSON record per workload is
written to ``--out`` (default ``bench/out/``), and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 1 when an
output check failed and 2 when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 3
#: Wall-clock allowance for one workload, set-up runs included.
WORKLOAD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu": cpu,
        "cores": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
    }


def _child(workload: str, seed: int, seconds: float, deadline: float, *extra: str) -> dict:
    """Run one ``bench.child`` process to completion; returns its result."""
    path = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    # A fixed hash seed keeps dict and set layouts, and their speed, the
    # same from run to run.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0")
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), *extra,
    ]
    launched = time.monotonic()
    # A session of its own, so a timeout also kills the child's pool workers.
    child = subprocess.Popen(
        [*command, "--launched", repr(launched)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload}: no result within {WORKLOAD_DEADLINE_S:.0f}s") from exc
        raise
    if child.returncode != 0:
        raise BenchError(f"{workload}: workload process exited with status {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _over_variants(iterations: list[dict], value) -> float:
    """The mean over input variants of the median ``value`` on each, so
    that a run's mix of cheap and costly variants does not move it."""
    by_variant: dict[int, list[float]] = {}
    for it in iterations:
        by_variant.setdefault(it["variant"], []).append(value(it))
    return statistics.fmean(statistics.median(v) for v in by_variant.values())


def end_to_end(setups: list[dict], result: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced measurement, times in
    reference-host seconds.  ``device_days_per_s`` comes from the timed
    iterations that simulate, or else from the studies the workload
    simulated outside its iterations."""
    timed = [it for it in result["iterations"] if not it["traced"]]
    simulating = [it for it in timed if it["device_days"]]
    if simulating:
        throughput = _over_variants(simulating, lambda it: it["device_days"] / it["ref_wall_s"])
    else:
        throughput = statistics.median(
            s["device_days"] / s["ref_wall_s"] for r in setups for s in r["simulations"]
        )
    return {
        "iteration_s": _over_variants(timed, lambda it: it["ref_wall_s"]),
        "cpu_s": _over_variants(timed, lambda it: it["ref_cpu_s"]),
        "setup_s": statistics.median(r["ref_setup_s"] for r in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "device_days_per_s": throughput,
    }


def check_summary(attempted: int, failures: list[str]) -> dict:
    """Output checks of one run; ``error_rate`` is failed over attempted."""
    return {
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    spans = None
    if trace:
        spans = out_dir / f"spans-{name}-seed{seed}.json"
        result = _child(name, seed, seconds, deadline, "--trace", "1", "--spans", str(spans))
        setups = [result]
        metrics = result["layers"]
    else:
        setups = [
            _child(name, seed, seconds, deadline, "--setup-only") for _ in range(SETUP_RUNS - 1)
        ]
        result = _child(name, seed, seconds, deadline)
        setups.append(result)
        metrics = end_to_end(setups, result)

    declared = spec["per_layer" if trace else "end_to_end"]
    mismatch = set(metrics) ^ {m["name"] for m in declared}
    if mismatch:
        raise BenchError(f"{name}: metrics {sorted(mismatch)} do not match BENCHMARK.json")
    return {
        "machine": machine_info(),
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "setup_runs": [
            {k: r[k] for k in ("setup_s", "ref_setup_s", "setup_samples", "simulations")}
            for r in setups
        ],
        "iterations": result["iterations"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "checks": check_summary(result["attempted"], result["failures"]),
        "unhit": result.get("unhit", []),
        "spans": str(spans.relative_to(ROOT)) if spans else None,
    }


def _print_record(record: dict) -> None:
    timed = [it for it in record["iterations"] if not it["traced"]]
    mode = "traced" if record["trace"] else "untraced"
    print(f"{record['workload']} (seed {record['seed']}, {mode}, "
          f"{len(record['iterations'])} iterations, {len(timed)} untraced)")
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    if timed and not record["trace"]:
        wall = statistics.median(it["wall_s"] for it in timed)
        print(f"  {'(raw median wall time)':<34} {wall:>14.6g} s")
    checks = record["checks"]
    print(f"  {'error_rate':<34} {checks['error_rate']:>14.6g} ratio "
          f"({checks['failed']} of {checks['attempted']} checks failed)")
    for failure in checks["failures"]:
        print(f"    FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    workloads = [name for name in names if name in args.workload]
    out_dir = ROOT / "bench" / "out"
    label = workloads[0] if len(workloads) == 1 else "all"
    out = args.out or out_dir / f"{label}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no src/repro under {ROOT}: run from a full checkout")
        out_dir.mkdir(parents=True, exist_ok=True)
        records = []
        for name in workloads:
            records.append(run_workload(spec, name, args.seed, args.seconds, bool(args.trace), out_dir))
            _print_record(records[-1])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["checks"]["attempted"] for r in records)
    failed = sum(r["checks"]["failed"] for r in records)
    if args.trace and workloads == names:
        never = set.intersection(*(set(r["unhit"]) for r in records))
        attempted += 1
        if never:
            failed += 1
            print(f"  FAILED: wrap targets never hit by any workload: {sorted(never)}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {out}")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
