"""The benchmark's workloads, and the child process that measures one.

``bench/run.py`` starts ``python3 -m bench.child`` for every measurement,
so each workload runs in a fresh interpreter.  The child sets the workload
up from ``--seed`` (the program only ever receives the generated configs
and datasets), runs timed iterations until ``--seconds`` have passed,
checks every output outside the timed region, and prints one JSON result
line.  Every time it reports is also given in reference-host seconds (see
``bench/hostspeed.py``).

A workload cycles through a fixed set of input variants (simulated worlds,
forest random states) in an order drawn from the seed, two iterations per
variant.  A full run visits every variant, so its median does not depend
on which seed it was given: small worlds differ by up to a fifth in cost,
which would otherwise dominate the run-to-run spread.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
from collections.abc import Sequence
from contextlib import nullcontext

import numpy as np

import repro.core.datasets as datasets
import repro.core.observations as observations
import repro.experiments.common as common
import repro.experiments.registry as registry
import repro.ml.forest as forest
import repro.ml.inspection as inspection
import repro.simulation.world as world
from repro.benchmark import study_digest
from repro.faults.chaos import escalating_plans
from repro.faults.plan import FaultPlan
from repro.simulation.config import DEFAULT_SEED, SimulationConfig

from bench.hostspeed import SAMPLER, reference_seconds
from bench.trace import TARGETS, Tracer, device_days, per_layer_metrics

__all__ = ["WORKLOADS", "Checks", "check_chaos", "measure"]


class Checks:
    """Output checks of one run: how many were made and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class _Rotation:
    """Visit ``n`` variants in seeded shuffled rounds, each round all ``n``."""

    def __init__(self, seed: int, n: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._n = n
        self._queue: list[int] = []

    def next(self) -> int:
        if not self._queue:
            self._queue = [int(k) for k in self._rng.permutation(self._n)]
        return self._queue.pop(0)


def _app_dataset(data):
    """The app dataset a study's classifier-eligible devices yield, as the
    detection pipeline builds it."""
    views = observations.build_observations(data, data.eligible_participants(min_days=2))
    return datasets.build_app_dataset(data, views)


def _timed(fn) -> tuple[object, dict]:
    """``fn()`` and its window: raw wall and CPU seconds, the host
    samples taken meanwhile, and both times in reference seconds."""
    mark = SAMPLER.mark()
    cpu = _cpu_seconds()
    wall = time.perf_counter()
    output = fn()
    wall = time.perf_counter() - wall
    cpu = _cpu_seconds() - cpu
    window = SAMPLER.window(mark)
    window.update(
        wall_s=wall,
        cpu_s=cpu,
        ref_wall_s=reference_seconds(wall, window),
        ref_cpu_s=reference_seconds(cpu, window),
    )
    return output, window


class Workload:
    """A workload is set up by its constructor from (base config, seed);
    each timed iteration then runs ``run(next_input())`` and ``check``s
    the output outside the timed region."""

    #: How many input variants ``next_input`` cycles through.
    variants = 1
    #: Timed windows of studies simulated outside the iterations, for a
    #: workload whose iterations simulate nothing.
    simulations: Sequence[dict] = ()

    def prepare(self, checks: Checks, tracer: Tracer | None) -> None:
        """Work after ``setup_s`` is taken and before the first iteration;
        it counts toward no iteration."""

    def device_days(self, output) -> int:
        """Device-days the iteration that gave ``output`` simulated."""
        return 0


class ReportSmall(Workload):
    """What ``report --scale small`` computes: a fresh workbench renders all
    17 experiments in registry order, simulation and cross-validated
    classifiers included.  Its one input variant is the calibrated small
    study with the default pipeline, whatever the seed: pipeline random
    states differ by ~5% in cost, and a run holds only two iterations."""

    def __init__(self, base: SimulationConfig, seed: int) -> None:
        self.config = base
        self._digest: str | None = None

    def next_input(self) -> int:
        return 0

    def run(self, _variant: int):
        bench = common.Workbench(self.config, n_jobs=1)
        return bench, registry.run_many(list(registry.EXPERIMENTS), bench, n_jobs=1)

    def check(self, _variant: int, output, checks: Checks) -> None:
        _bench, reports = output
        digest = hashlib.sha256()
        for eid, report in zip(registry.EXPERIMENTS, reports):
            text = report.render()
            checks.expect(
                text.startswith(f"== {eid}:") and bool(report.lines), f"{eid} rendered no report"
            )
            digest.update(text.encode())
        if self._digest is None:
            self._digest = digest.hexdigest()
        checks.expect(
            digest.hexdigest() == self._digest, "report bytes differ from the first iteration"
        )

    def device_days(self, output) -> int:
        return device_days(output[0].data)


class ImportanceSmall(Workload):
    """Fig 13's computation on the small study's app dataset: a 100-tree
    forest fit, then permutation importance with three repeats.  Setup
    simulates the study and builds the dataset; the seed orders three
    forest random states.  The iterations simulate nothing, so the study's
    simulation is timed instead: once in set-up and, untraced, another
    ``RESIMULATIONS`` times before the iterations."""

    variants = 3  # forest random states
    RESIMULATIONS = 5

    def __init__(self, base: SimulationConfig, seed: int) -> None:
        self.config = base
        self.simulations: list[dict] = []
        dataset = _app_dataset(self._simulate())
        self.X, self.y = dataset.X, dataset.y
        self._rotation = _Rotation(seed, self.variants)
        self._importances: dict[int, bytes] = {}

    def _simulate(self):
        data, window = _timed(lambda: world.run_study(self.config, n_jobs=1))
        window["device_days"] = device_days(data)
        self.simulations.append(window)
        return data

    def prepare(self, checks: Checks, tracer: Tracer | None) -> None:
        if tracer is None:
            for _ in range(self.RESIMULATIONS):
                self._simulate()

    def next_input(self) -> int:
        return self._rotation.next()

    def run(self, random_state: int):
        model = forest.RandomForestClassifier(n_estimators=100, random_state=random_state)
        model.fit(self.X, self.y)
        return inspection.permutation_importance(
            model, self.X, self.y, n_repeats=3, random_state=random_state
        )

    def check(self, random_state: int, result, checks: Checks) -> None:
        means = result.importances_mean
        checks.expect(
            means.shape == (self.X.shape[1],) and bool(np.isfinite(means).all()),
            "importances are not one finite value per feature",
        )
        blob = means.tobytes() + result.importances_std.tobytes()
        checks.expect(
            blob == self._importances.setdefault(random_state, blob),
            f"importances for random_state={random_state} differ between iterations",
        )


class _WorldPool(Workload):
    """Three small worlds, seeds ``DEFAULT_SEED + k``, visited in an order
    drawn from the benchmark seed."""

    variants = 3  # worlds

    def __init__(self, base: SimulationConfig, seed: int) -> None:
        self.configs = [base.scaled(seed=DEFAULT_SEED + k) for k in range(self.variants)]
        self._rotation = _Rotation(seed, self.variants)

    def next_input(self) -> int:
        return self._rotation.next()


class SimulateSmall(_WorldPool):
    """``simulate`` plus the analyses' inputs: ``run_study`` serially, then
    observations and the app dataset.  No classifier runs."""

    def __init__(self, base: SimulationConfig, seed: int) -> None:
        super().__init__(base, seed)
        self._digests: dict[int, str] = {}

    def run(self, world_index: int):
        data = world.run_study(self.configs[world_index], n_jobs=1)
        return data, _app_dataset(data)

    def check(self, world_index: int, output, checks: Checks) -> None:
        data, dataset = output
        checks.expect(
            len(dataset.y) > 0 and dataset.X.shape == (len(dataset.y), len(dataset.feature_names)),
            f"world {world_index}: app dataset is empty or misshapen",
        )
        digest = study_digest(data)
        checks.expect(
            digest == self._digests.setdefault(world_index, digest),
            f"world {world_index}: study digest differs between iterations",
        )

    def device_days(self, output) -> int:
        return device_days(output[0])


def _chaos_entry(data) -> dict:
    buffers = [p.app.buffer for p in data.participants]
    return {
        "digest": study_digest(data),
        "records": data.server.stats.records_inserted,
        "pending": sum(b.pending_chunks for b in buffers),
        "dead_letters": sum(b.dead_letter_chunks for b in buffers),
        "backlog": getattr(data.server, "redelivery_backlog", 0),
    }


def check_chaos(entry: dict, reference: dict | None, checks: Checks, label: str) -> None:
    """The exactly-once contract: empty queues at close and, against the
    clean reference run, the same digest and the same records inserted."""
    checks.expect(entry["pending"] == 0, f"{label}: {entry['pending']} chunks pending at close")
    checks.expect(entry["dead_letters"] == 0, f"{label}: {entry['dead_letters']} dead letters")
    checks.expect(entry["backlog"] == 0, f"{label}: {entry['backlog']} chunks parked at close")
    if reference is None:
        return
    checks.expect(
        entry["digest"] == reference["digest"],
        f"{label}: digest {entry['digest'][:16]} != reference {reference['digest'][:16]}",
    )
    checks.expect(
        entry["records"] == reference["records"],
        f"{label}: {entry['records']} records inserted != reference {reference['records']}",
    )


class IngestMayhemJ2(_WorldPool):
    """The small worlds under the ``mayhem`` fault plan at two workers:
    loss, corruption, ack loss, receive crashes, store rejections and an
    overload window, all absorbed by retries, dedup and rollbacks.  Before
    timing, one serial clean-plan run per world gives the reference."""

    N_JOBS = 2

    def __init__(self, base: SimulationConfig, seed: int) -> None:
        super().__init__(base, seed)
        self.plan = dict(escalating_plans())["mayhem"]
        self._references: dict[int, dict] = {}

    def prepare(self, checks: Checks, tracer: Tracer | None) -> None:
        for k, config in enumerate(self.configs):
            with tracer.installed(-(k + 1)) if tracer else nullcontext():
                data = world.run_study(config.scaled(fault_plan=FaultPlan()), n_jobs=1)
            self._references[k] = _chaos_entry(data)
            check_chaos(self._references[k], None, checks, f"world {k} reference")

    def run(self, world_index: int):
        config = self.configs[world_index].scaled(fault_plan=self.plan)
        return world.run_study(config, n_jobs=self.N_JOBS)

    def check(self, world_index: int, data, checks: Checks) -> None:
        check_chaos(
            _chaos_entry(data), self._references[world_index], checks, f"world {world_index}"
        )

    def device_days(self, output) -> int:
        return device_days(output)


WORKLOADS = {
    "report-small": ReportSmall,
    "importance-small": ImportanceSmall,
    "simulate-small": SimulateSmall,
    "ingest-mayhem-j2": IngestMayhemJ2,
}


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    launched: float,
    trace: bool = False,
    setup_only: bool = False,
    base: SimulationConfig | None = None,
    spans_path: str | None = None,
) -> dict:
    """Set up one workload, then time iterations for ``seconds``.

    ``launched`` is the ``time.monotonic()`` at which the parent started this
    interpreter; ``setup_s`` runs from there until the workload has built
    its inputs, and is scaled by the host samples taken since sampling
    started.
    Iterations come in pairs on one input variant.  With ``trace`` the
    second of each pair runs traced, so every traced output is checked
    against an untraced one.
    """
    owned = not SAMPLER.running
    SAMPLER.start()
    try:
        return _measure(name, seed, seconds, launched, trace, setup_only, base, spans_path)
    finally:
        if owned:
            SAMPLER.stop()


def _measure(name, seed, seconds, launched, trace, setup_only, base, spans_path) -> dict:
    workload = WORKLOADS[name](base or SimulationConfig.small(), seed)
    setup_s = time.monotonic() - launched
    setup = SAMPLER.window(0)
    result: dict = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "ref_setup_s": reference_seconds(setup_s, setup),
        "setup_samples": setup["samples"],
        "simulations": list(workload.simulations),
    }
    if setup_only:
        return result
    checks = Checks()
    tracer = Tracer() if trace else None
    workload.prepare(checks, tracer)
    result["simulations"] = list(workload.simulations)

    iterations: list[dict] = []
    started = time.perf_counter()
    # Traced, at least one traced pair; untraced, every input variant.
    while (
        len(iterations) < (2 if trace else 1)
        or (not trace and len({it["variant"] for it in iterations}) < workload.variants)
        or time.perf_counter() - started < seconds
    ):
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        if index % 2 == 0:
            variant = workload.next_input()
        gc.collect()
        with tracer.installed(index) if traced else nullcontext():
            output, window = _timed(lambda: workload.run(variant))
        workload.check(variant, output, checks)
        iterations.append(
            {
                "index": index,
                "variant": variant,
                "traced": traced,
                **window,
                "device_days": workload.device_days(output),
            }
        )
        del output

    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        iterations=iterations,
        attempted=checks.attempted,
        failures=checks.failures,
    )
    if tracer is not None:
        traced_runs = [it for it in iterations if it["traced"]]
        result["layers"] = per_layer_metrics(
            tracer.spans,
            [it["index"] for it in traced_runs],
            [it["ref_wall_s"] for it in traced_runs],
            [it["ref_wall_s"] for it in iterations if not it["traced"]],
        )
        result["unhit"] = sorted({label for _, _, label in TARGETS} - tracer.hit)
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        launched=args.launched,
        trace=bool(args.trace),
        setup_only=args.setup_only,
        spans_path=args.spans,
    )
    print(json.dumps(result))
    return 0
