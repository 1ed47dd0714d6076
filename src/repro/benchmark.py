"""``python -m repro bench sim`` — the day engine's speedup + identity gate.

Times the two-phase simulation engine (DESIGN.md §12) at ``n_jobs = 1``
versus ``n_jobs = max`` in device-days/sec, asserts that the serial and
sharded runs produce byte-identical study output (store contents, review
corpus, rank series, device state), and writes ``BENCH_sim.json``.  With
a ``bench-baseline.json`` present the speedup is gated against its
committed floor — skipped on runners with fewer than two cores, where a
parallel speedup is not measurable.  ``--smoke`` shrinks the study to
CI size.

:func:`study_digest` is the study's byte-identity fingerprint; the chaos
gate and the repository benchmark (``bench/``) import it from here.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

from . import obs
from .parallel import resolve_n_jobs

__all__ = ["run_sim_bench", "study_digest"]


def _machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
    }


def _timed(fn, *args, **kwargs) -> tuple[object, float]:
    with obs.timer() as timed:
        result = fn(*args, **kwargs)
    return result, timed.elapsed


def _speedup(serial: float, parallel: float) -> float:
    return round(serial / parallel, 3) if parallel > 0 else 0.0


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
