"""``python -m repro bench`` — speedup + determinism benchmark suites.

The ``ml`` suite times Table 1/Table 2-style workloads (repeated
stratified CV over the paper's algorithm suite and a per-tree-parallel
forest fit) at ``n_jobs = 1`` versus ``n_jobs = max``, asserts that
serial and parallel runs produce byte-identical outputs (the DESIGN.md
§8 contract), and writes the measurements to ``BENCH_ml.json``.

The ``lint`` suite times the statan analysis serial versus fanned out
and asserts byte-identical findings (``BENCH_lint.json``).

The ``sim`` suite times the two-phase simulation engine (DESIGN.md §12)
at ``n_jobs = 1`` versus ``n_jobs = max`` in device-days/sec, asserts
that the serial and sharded runs produce byte-identical study output
(store contents, review corpus, rank series, device state), and writes
``BENCH_sim.json``.  With a ``bench-baseline.json`` present the sim
speedup is gated against its committed floor — skipped on runners with
fewer than two cores, where a parallel speedup is not measurable.

``--smoke`` shrinks the workloads to CI size; it is the regression gate
that the executor and the day engine still honour their determinism
contracts on every push.  Speedups are recorded, not asserted (bar the
sim floor): single-core runners legitimately measure ~1x on the ml suite.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

from . import obs
from .ml import (
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    LVQClassifier,
    RandomForestClassifier,
    cross_validate,
)
from .parallel import resolve_n_jobs, spawn_seeds

__all__ = [
    "run_bench",
    "run_lint_bench",
    "run_sim_bench",
    "make_bench_dataset",
    "study_digest",
]


def _machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
    }


def make_bench_dataset(
    n_samples: int, n_features: int, root_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic two-class task shaped like the app/device feature
    matrices (a few informative dimensions, the rest noise).

    Seeds are spawned from ``root_seed`` via ``SeedSequence`` — a fresh
    stream, independent of every existing consumer.
    """
    data_seed, label_seed = spawn_seeds(root_seed, 2)
    rng = np.random.default_rng(data_seed)
    y = (np.arange(n_samples) % 3 == 0).astype(np.int64)  # ~1:2 imbalance
    y = np.random.default_rng(label_seed).permutation(y)
    X = rng.normal(size=(n_samples, n_features))
    informative = max(2, n_features // 4)
    X[:, :informative] += 1.5 * y[:, None]
    return X, y


def _cv_suite(smoke: bool, random_state: int) -> dict[str, object]:
    """Table 1/2-style algorithm suite (trimmed in smoke mode)."""
    if smoke:
        return {
            "RF": RandomForestClassifier(n_estimators=24, random_state=random_state),
            "KNN": KNeighborsClassifier(n_neighbors=5),
            "LR": LogisticRegression(C=1.0),
        }
    return {
        "XGB": GradientBoostingClassifier(
            n_estimators=60, max_depth=3, learning_rate=0.15, random_state=random_state
        ),
        "RF": RandomForestClassifier(n_estimators=120, random_state=random_state),
        "LR": LogisticRegression(C=1.0),
        "KNN": KNeighborsClassifier(n_neighbors=5),
        "LVQ": LVQClassifier(prototypes_per_class=5, epochs=25, random_state=random_state),
    }


def _timed(fn, *args, **kwargs) -> tuple[object, float]:
    with obs.timer() as timed:
        result = fn(*args, **kwargs)
    return result, timed.elapsed


def _speedup(serial: float, parallel: float) -> float:
    return round(serial / parallel, 3) if parallel > 0 else 0.0


def run_bench(
    seed: int = 0,
    n_jobs: int | None = None,
    smoke: bool = False,
    out: str = "BENCH_ml.json",
) -> int:
    """Run the benchmark; returns a non-zero exit code if any serial vs
    parallel output mismatch is detected."""
    n_samples, n_features, n_splits = (240, 10, 5) if smoke else (600, 16, 10)
    max_jobs = resolve_n_jobs(n_jobs if n_jobs is not None else (2 if smoke else 0))
    X, y = make_bench_dataset(n_samples, n_features, seed)
    failures: list[str] = []
    payload: dict = {
        "machine": _machine_info(),
        "smoke": smoke,
        "seed": seed,
        "n_jobs": max_jobs,
        "dataset": {"n_samples": n_samples, "n_features": n_features},
        "cv": [],
    }

    print(f"bench: {n_samples}x{n_features} dataset, n_jobs 1 vs {max_jobs}")
    for name, estimator in _cv_suite(smoke, random_state=seed).items():
        serial, t_serial = _timed(
            cross_validate, estimator, X, y,
            n_splits=n_splits, random_state=seed, name=name, n_jobs=1,
        )
        parallel, t_parallel = _timed(
            cross_validate, estimator, X, y,
            n_splits=n_splits, random_state=seed, name=name, n_jobs=max_jobs,
        )
        equal = serial.summary() == parallel.summary()
        if not equal:
            failures.append(f"cv[{name}]: serial and parallel summaries differ")
        payload["cv"].append(
            {
                "model": name,
                "fit_seconds_serial": round(t_serial, 4),
                "fit_seconds_parallel": round(t_parallel, 4),
                "speedup": _speedup(t_serial, t_parallel),
                "outputs_equal": equal,
            }
        )
        print(
            f"  cv {name:>4}: {t_serial:7.3f}s -> {t_parallel:7.3f}s "
            f"({_speedup(t_serial, t_parallel)}x, equal={equal})"
        )

    # Per-tree forest parallelism: importances must merge in tree order.
    n_trees = 40 if smoke else 150
    f_serial, t_serial = _timed(
        RandomForestClassifier(n_estimators=n_trees, random_state=seed, n_jobs=1).fit,
        X, y,
    )
    f_parallel, t_parallel = _timed(
        RandomForestClassifier(
            n_estimators=n_trees, random_state=seed, n_jobs=max_jobs
        ).fit,
        X, y,
    )
    forest_equal = bool(
        np.array_equal(f_serial.feature_importances_, f_parallel.feature_importances_)
        and f_serial.oob_score() == f_parallel.oob_score()
    )
    if not forest_equal:
        failures.append("forest: importances or OOB score differ across n_jobs")
    payload["forest"] = {
        "n_estimators": n_trees,
        "fit_seconds_serial": round(t_serial, 4),
        "fit_seconds_parallel": round(t_parallel, 4),
        "speedup": _speedup(t_serial, t_parallel),
        "outputs_equal": forest_equal,
    }
    print(
        f"  forest ({n_trees} trees): {t_serial:.3f}s -> {t_parallel:.3f}s "
        f"({payload['forest']['speedup']}x, equal={forest_equal})"
    )

    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {out}")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- lint suite (DESIGN.md §10) ----------------------------------------------


def run_lint_bench(
    n_jobs: int | None = None,
    smoke: bool = False,
    out: str = "BENCH_lint.json",
    paths: list[str] | None = None,
) -> int:
    """Benchmark the statan two-phase analysis, serial vs fanned out.

    Asserts the determinism contract: the full finding list (rules,
    positions, messages, fingerprints) must be byte-identical at any
    worker count.  Returns non-zero on mismatch.  Speedups are recorded,
    not asserted — single-core runners legitimately measure ~1x.
    """
    import os.path

    from .statan.engine import analyze_tree

    if paths is None:
        paths = ["src"] if os.path.isdir("src") else ["."]
    max_jobs = resolve_n_jobs(n_jobs if n_jobs is not None else (2 if smoke else 0))
    rounds = 1 if smoke else 3
    failures: list[str] = []

    def run_once(jobs: int):
        result = None
        for _ in range(rounds):
            result = analyze_tree(paths, n_jobs=jobs)
        return result

    (serial_findings, stats), t_serial = _timed(run_once, 1)
    (parallel_findings, _), t_parallel = _timed(run_once, max_jobs)

    serial_bytes = json.dumps([f.to_json() for f in serial_findings])
    parallel_bytes = json.dumps([f.to_json() for f in parallel_findings])
    equal = serial_bytes == parallel_bytes
    if not equal:
        failures.append("lint: findings differ between serial and parallel runs")

    payload = {
        "machine": _machine_info(),
        "smoke": smoke,
        "n_jobs": max_jobs,
        "rounds": rounds,
        "paths": paths,
        "stats": stats,
        "findings": len(serial_findings),
        "by_rule": {
            rule: sum(1 for f in serial_findings if f.rule == rule)
            for rule in sorted({f.rule for f in serial_findings})
        },
        "lint_seconds_serial": round(t_serial, 4),
        "lint_seconds_parallel": round(t_parallel, 4),
        "speedup": _speedup(t_serial, t_parallel),
        "outputs_equal": equal,
    }
    print(
        f"bench lint: {stats.get('files', 0)} files x{rounds}: "
        f"{t_serial:.3f}s -> {t_parallel:.3f}s at n_jobs {max_jobs} "
        f"({payload['speedup']}x, equal={equal})"
    )
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {out}")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- simulation suite (DESIGN.md §12) ----------------------------------------


def study_digest(data) -> str:
    """SHA-256 over everything one study run produced.

    Covers the server store, the crawled review corpus, per-participant
    device state (events, sessions, installed set, app install ids), the
    campaign board delivery totals, and the rank-tracker series — the
    byte-identity contract of the two-phase engine.  Device ids are
    normalized positionally: they come from a process-global counter, so
    their absolute values differ between *any* two runs in one process,
    independent of worker count.

    Store records are hashed in *canonical* (sorted serialized) order
    per collection, not arrival order: the exactly-once ingest contract
    says faults may move *when* a chunk lands (retries, next-day
    redelivery), never *what* the study contains, so the digest must be
    insensitive to ingest timing while still pinning the full record
    multiset.
    """
    import hashlib

    h = hashlib.sha256()
    device_alias: dict[str, str] = {}
    for participant in data.participants:
        device_alias.setdefault(
            participant.device.device_id, f"dev#{len(device_alias)}"
        )
    for name in sorted(data.server.store.collection_names()):
        for line in sorted(
            json.dumps(record, sort_keys=True, default=str)
            for record in data.server.store[name].find()
        ):
            h.update(line.encode())
    for package in sorted(data.review_crawler.tracked_apps()):
        for review in data.review_store.reviews_for_app(package):
            h.update(
                repr(
                    (review.app_package, review.google_id, review.rating,
                     review.timestamp)
                ).encode()
            )
    for participant in data.participants:
        device = participant.device
        h.update(
            repr(
                (
                    participant.participant_id,
                    device_alias[device.device_id],
                    participant.app.install_id,
                    participant.app.installed_at,
                    participant.app.uninstalled_at,
                    sorted(device.installed),
                    device.battery_level,
                )
            ).encode()
        )
        for event in device.events:
            h.update(
                repr((event.timestamp, int(event.event_type), event.package)).encode()
            )
        for session in device.sessions:
            h.update(repr((session.start, session.end, session.package)).encode())
    for campaign in data.board.campaigns():
        h.update(
            repr(
                (campaign.app_package, campaign.delivered_installs,
                 campaign.delivered_reviews)
            ).encode()
        )
    if data.rank_tracker is not None:
        for package, keyword in data.rank_tracker.tracked():
            for sample in data.rank_tracker.series(package, keyword):
                h.update(
                    repr(
                        (package, keyword, sample.day, sample.rank,
                         sample.install_count, sample.review_count)
                    ).encode()
                )
    return h.hexdigest()


def run_sim_bench(
    seed: int = 0,
    n_jobs: int | None = None,
    smoke: bool = False,
    out: str = "BENCH_sim.json",
    baseline: str | None = None,
) -> int:
    """Benchmark the two-phase day engine, serial vs sharded.

    Times ``run_study`` at ``n_jobs = 1`` versus ``n_jobs = max`` in
    device-days/sec and asserts the identity contract: both runs must
    produce the same :func:`study_digest`.  Returns non-zero on a digest
    mismatch, or (with a baseline file on a multi-core runner) when the
    measured speedup falls below the committed ``sim`` floor.
    """
    from .simulation.config import SimulationConfig
    from .simulation.world import run_study

    config = SimulationConfig.small() if smoke else SimulationConfig()
    config = config.scaled(seed=config.seed + seed)
    max_jobs = resolve_n_jobs(n_jobs if n_jobs is not None else 0)
    failures: list[str] = []

    serial_data, t_serial = _timed(run_study, config, 1)
    sharded_data, t_sharded = _timed(run_study, config, max_jobs)

    device_days = sum(p.active_days for p in serial_data.participants)
    serial_digest = study_digest(serial_data)
    sharded_digest = study_digest(sharded_data)
    equal = serial_digest == sharded_digest
    if not equal:
        failures.append(
            f"sim: sharded study output diverged from serial "
            f"({sharded_digest[:16]} != {serial_digest[:16]})"
        )

    payload: dict = {
        "machine": _machine_info(),
        "smoke": smoke,
        "seed": seed,
        "n_jobs": max_jobs,
        "participants": len(serial_data.participants),
        "device_days": device_days,
        "study_digest": serial_digest,
        "serial_seconds": round(t_serial, 4),
        "sharded_seconds": round(t_sharded, 4),
        "device_days_per_sec_serial": round(device_days / t_serial, 2)
        if t_serial > 0
        else None,
        "device_days_per_sec_sharded": round(device_days / t_sharded, 2)
        if t_sharded > 0
        else None,
        "speedup": _speedup(t_serial, t_sharded),
        "outputs_equal": equal,
    }
    print(
        f"bench sim: {device_days} device-days: serial {t_serial:.3f}s "
        f"({payload['device_days_per_sec_serial']}/s) -> n_jobs {max_jobs} "
        f"{t_sharded:.3f}s ({payload['device_days_per_sec_sharded']}/s, "
        f"{payload['speedup']}x, equal={equal})"
    )

    # Speedup-floor gate.  A single-core runner cannot demonstrate a
    # parallel speedup, so the floor only applies when the fan-out had
    # at least two cores to work with.
    if baseline is None and smoke:
        baseline = "bench-baseline.json"
    cores = os.cpu_count() or 1
    if baseline and os.path.exists(baseline) and cores >= 2 and max_jobs >= 2:
        with open(baseline) as handle:
            floors = json.load(handle).get("sim", {})
        floor = floors.get("min_speedup")
        if floor is not None:
            ok = payload["speedup"] >= floor
            payload["baseline"] = {
                "path": baseline,
                "min_speedup": floor,
                "ok": ok,
            }
            if not ok:
                failures.append(
                    f"baseline[sim]: speedup {payload['speedup']} below "
                    f"floor {floor}"
                )
            print(f"  baseline gate ({baseline}): {'ok' if ok else 'FAIL'}")
    elif baseline:
        reason = (
            f"{baseline} not found"
            if not os.path.exists(baseline)
            else f"needs >= 2 cores (have {cores}, n_jobs {max_jobs})"
        )
        print(f"  baseline gate skipped: {reason}")

    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {out}")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0
