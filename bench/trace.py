"""Per-layer tracing: wrap public functions from outside and record spans.

``TARGETS`` is the one table of wrap targets: a module, an attribute in it
(``Class.method`` for methods) and the span label the call records.  A
target is patched where the program looks the name up: ``world.py`` imports
``commit_day`` from ``phases``, so its row is
``("repro.simulation.world", "commit_day", ...)``.  A function looked up in
several modules has one row per module.

Each call records a :class:`Span` in memory (name, start, end, parent span
and the workload iteration as the id its spans share); :meth:`Tracer.write`
saves them when the run ends.  :func:`per_layer_metrics` turns the spans
into the ``per_layer`` metrics named in ``BENCHMARK.json``.

Calls made inside process-pool workers record into the worker's copy of
the tracer and are lost, so at ``n_jobs=2`` phase-1 time shows up as
``parallel.map_s`` in the parent, not as ``simulation.phase1_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.app_classifier import APP_ALGORITHMS
from repro.core.device_classifier import DEVICE_ALGORITHMS
from repro.experiments.registry import EXPERIMENTS

__all__ = [
    "TARGETS",
    "Span",
    "Tracer",
    "device_days",
    "outermost",
    "per_layer_metrics",
    "self_seconds",
]

_FIT = "ml.fit"
_QUERY = "platform.query"

#: (module, attribute, span label).  Labels listed in ``_SPAN_NAMES`` get a
#: per-call suffix; all others are the span name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # simulation: study driver and the two-phase day engine
    ("repro.simulation.world", "run_study", "simulation.run_study"),
    ("repro.experiments.common", "run_study", "simulation.run_study"),
    ("repro.simulation.world", "build_world", "simulation.build_world"),
    ("repro.simulation.world", "run_day_shard", "simulation.phase1"),
    # Pool workers are pickled by reference to their home module, so the
    # shard worker's wrapper must sit there too (the same wrapper object).
    ("repro.simulation.phases", "run_day_shard", "simulation.phase1"),
    ("repro.simulation.world", "commit_day", "simulation.commit"),
    ("repro.simulation.world", "parallel_map", "parallel.map"),
    # playstore: crawler rounds and keyword-rank tracking
    ("repro.playstore.reviews", "ReviewCrawler.crawl_round", "playstore.crawl"),
    ("repro.playstore.rank_tracker", "RankTracker.record_day", "playstore.rank"),
    # platform: ingest and the document store
    ("repro.platform.server", "RacketStoreServer.receive_chunk", "platform.receive"),
    ("repro.faults.server", "FaultableServer.receive_chunk", "platform.receive"),
    ("repro.platform.store", "ColumnarCollection.insert_many", "platform.insert"),
    ("repro.platform.store", "DocumentStore.compact", "platform.compact"),
    ("repro.platform.store", "ColumnarCollection.find", _QUERY),
    ("repro.platform.store", "ColumnarCollection.find_one", _QUERY),
    ("repro.platform.store", "ColumnarCollection.find_views", _QUERY),
    ("repro.platform.store", "ColumnarCollection.count", _QUERY),
    ("repro.platform.store", "ColumnarCollection.distinct", _QUERY),
    # core: observations, datasets, features, device scoring
    ("repro.core.observations", "build_observations", "core.observations"),
    ("repro.core.pipeline", "build_observations", "core.observations"),
    ("repro.experiments.common", "build_observations", "core.observations"),
    ("repro.core.datasets", "build_app_dataset", "core.app_dataset"),
    ("repro.core.pipeline", "build_app_dataset", "core.app_dataset"),
    ("repro.core.datasets", "app_feature_matrix", "core.app_features"),
    ("repro.core.pipeline", "app_feature_matrix", "core.app_features"),
    ("repro.core.datasets", "device_feature_matrix", "core.device_features"),
    ("repro.core.pipeline", "device_feature_matrix", "core.device_features"),
    ("repro.core.pipeline", "DetectionPipeline.score_devices", "core.score_devices"),
    # ml: cross-validation, every estimator fit, predict, permutation
    ("repro.core.app_classifier", "cross_validate", "ml.cv.app"),
    ("repro.core.device_classifier", "cross_validate", "ml.cv.device"),
    ("repro.ml.tree", "DecisionTreeClassifier.fit", _FIT),
    ("repro.ml.forest", "RandomForestClassifier.fit", _FIT),
    ("repro.ml.gradient_boosting", "GradientBoostingClassifier.fit", _FIT),
    ("repro.ml.logistic", "LogisticRegression.fit", _FIT),
    ("repro.ml.knn", "KNeighborsClassifier.fit", _FIT),
    ("repro.ml.lvq", "LVQClassifier.fit", _FIT),
    ("repro.ml.svm", "LinearSVC.fit", _FIT),
    ("repro.ml.preprocessing", "SimpleImputer.fit", _FIT),
    ("repro.ml.base", "ClassifierMixin.predict", "ml.predict"),
    ("repro.ml.svm", "LinearSVC.predict", "ml.predict"),
    ("repro.ml.inspection", "permutation_importance", "ml.permutation"),
    ("repro.experiments.classifiers", "permutation_importance", "ml.permutation"),
    # experiments: one span per report
    ("repro.experiments.registry", "run_experiment", "experiments"),
)

_SPAN_NAMES = {
    "ml.cv.app": lambda args, kwargs: f"ml.cv.app.{kwargs['name']}",
    "ml.cv.device": lambda args, kwargs: f"ml.cv.device.{kwargs['name']}",
    "experiments": lambda args, kwargs: f"experiments.{args[0]}",
}


def device_days(data) -> int:
    """Device-days a finished study simulated (participant x active day)."""
    return sum(
        1
        for participant in data.participants
        for day in range(data.config.study_days)
        if participant.active_on(day)
    )


def _study_counts(data) -> dict[str, int]:
    """Ingest counts of a finished study, read from its public state."""
    stats = data.server.stats
    return {
        "device_days": device_days(data),
        "chunks": stats.chunks_received,
        "duplicates": stats.duplicate_chunks,
        "malformed": stats.malformed_chunks,
        "rollbacks": stats.chunk_rollbacks,
        "retransmissions": sum(p.app.buffer.retransmissions for p in data.participants),
        "redelivered": getattr(data.server, "redelivered_chunks", 0),
    }


#: Counts attached to a span from the call's return value.
_ANNOTATE = {
    "simulation.run_study": _study_counts,
    "ml.predict": lambda labels: {"rows": len(labels)},
    "parallel.map": lambda results: {"tasks": len(results)},
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at the top
    iteration: int  # workload iteration; reference runs are negative
    attrs: dict | None = None


def _resolve(module_name: str, attribute: str):
    *path, leaf = attribute.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"wrap target {module_name}:{attribute} does not resolve") from exc
    if leaf not in vars(owner):
        raise LookupError(f"wrap target {module_name}:{attribute} does not resolve")
    return owner, leaf


class Tracer:
    """Span recorder; :meth:`installed` patches every target for one block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.hit: set[str] = set()  # labels of the targets called at least once
        self.iteration = 0
        self._stack = [-1]

    def _wrap(self, fn, label: str):
        namer = _SPAN_NAMES.get(label)
        annotate = _ANNOTATE.get(label)
        spans, stack, hit = self.spans, self._stack, self.hit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit.add(label)
            name = namer(args, kwargs) if namer else label
            span = Span(name, time.perf_counter(), 0.0, stack[-1], self.iteration)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs = {"failed": 1}
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(result)
            return result

        return wrapper

    @contextmanager
    def installed(self, iteration: int):
        """Record spans under ``iteration`` while the block runs."""
        self.iteration = iteration
        wrappers: dict[tuple[int, str], object] = {}
        patched = []
        try:
            for module_name, attribute, label in TARGETS:
                owner, leaf = _resolve(module_name, attribute)
                raw = vars(owner)[leaf]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                # Sites that look up one function share its wrapper, so a
                # wrapped pool worker still pickles by reference.
                key = (id(fn), label)
                if key not in wrappers:
                    wrappers[key] = self._wrap(fn, label)
                setattr(owner, leaf, staticmethod(wrappers[key]) if static else wrappers[key])
                patched.append((owner, leaf, raw))
            yield self
        finally:
            for owner, leaf, raw in reversed(patched):
                setattr(owner, leaf, raw)

    def write(self, path) -> None:
        fields = ["name", "start", "end", "parent", "iteration", "attrs"]
        rows = [[getattr(span, f) for f in fields] for span in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": rows}, handle)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            start, end = max(kid.start, reach), min(kid.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def outermost(spans: list[Span]) -> list[bool]:
    """Whether each span has no enclosing span of the same name, so that
    recursive or overriding calls are counted once."""
    out = []
    for span in spans:
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        out.append(parent < 0)
    return out


@dataclass
class _Totals:
    """One iteration's spans, summed per span name."""

    seconds: dict = field(default_factory=lambda: defaultdict(float))  # outermost
    calls: dict = field(default_factory=lambda: defaultdict(int))  # outermost
    failed: dict = field(default_factory=lambda: defaultdict(int))  # outermost
    attrs: dict = field(default_factory=lambda: defaultdict(float))  # outermost
    self_seconds: dict = field(default_factory=lambda: defaultdict(float))  # all
    all_calls: dict = field(default_factory=lambda: defaultdict(int))  # all


def _totals_by_iteration(spans: list[Span]) -> dict[int, _Totals]:
    totals: dict[int, _Totals] = defaultdict(_Totals)
    for span, own, top in zip(spans, self_seconds(spans), outermost(spans)):
        t = totals[span.iteration]
        t.self_seconds[span.name] += own
        t.all_calls[span.name] += 1
        if not top:
            continue
        t.seconds[span.name] += span.end - span.start
        t.calls[span.name] += 1
        for key, value in (span.attrs or {}).items():
            if key == "failed":
                t.failed[span.name] += value
            else:
                t.attrs[span.name, key] += value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_values(t: _Totals) -> dict[str, float]:
    """The per-layer metrics of one iteration, except the run-level ones."""
    seconds, calls = t.seconds, t.calls

    def study(key: str) -> float:
        return t.attrs["simulation.run_study", key]

    chunks, duplicates = study("chunks"), study("duplicates")
    values = {
        "simulation.phase1_s": seconds["simulation.phase1"],
        "simulation.commit_s": seconds["simulation.commit"],
        "simulation.world_s": seconds["simulation.build_world"],
        "simulation.self_s": t.self_seconds["simulation.run_study"],
        "simulation.device_days": study("device_days"),
        "playstore.crawl_s": seconds["playstore.crawl"],
        "playstore.crawl_calls": calls["playstore.crawl"],
        "playstore.rank_s": seconds["playstore.rank"],
        "platform.receive_s": seconds["platform.receive"],
        "platform.receive_calls": calls["platform.receive"],
        "platform.receive_failed": t.failed["platform.receive"],
        "platform.insert_s": seconds["platform.insert"],
        "platform.compact_s": seconds["platform.compact"],
        "platform.query_s": seconds[_QUERY],
        "platform.query_calls": calls[_QUERY],
        "platform.duplicate_ratio": _ratio(duplicates, chunks),
        "platform.useful_chunk_ratio": _ratio(
            chunks - duplicates - study("malformed"), chunks
        ),
        "platform.rollbacks": study("rollbacks"),
        "platform.retransmissions": study("retransmissions"),
        "faults.redelivered": study("redelivered"),
        "core.observations_s": seconds["core.observations"],
        "core.app_dataset_s": seconds["core.app_dataset"],
        "core.app_features_s": seconds["core.app_features"],
        "core.device_features_s": seconds["core.device_features"],
        "core.score_devices_s": seconds["core.score_devices"],
        "ml.fit_s": t.self_seconds[_FIT],
        "ml.fit_calls": t.all_calls[_FIT],
        "ml.predict_s": seconds["ml.predict"],
        "ml.predict_rows_per_s": _ratio(t.attrs["ml.predict", "rows"], seconds["ml.predict"]),
        "ml.permutation_s": seconds["ml.permutation"],
        "parallel.map_s": seconds["parallel.map"],
        "parallel.map_calls": calls["parallel.map"],
        "parallel.tasks": t.attrs["parallel.map", "tasks"],
    }
    for layer, models in (("app", APP_ALGORITHMS()), ("device", DEVICE_ALGORITHMS())):
        for model in models:
            values[f"ml.cv_s.{layer}.{model}"] = seconds[f"ml.cv.{layer}.{model}"]
    for experiment_id in EXPERIMENTS:
        values[f"experiments.{experiment_id}_s"] = seconds[f"experiments.{experiment_id}"]
    return values


def per_layer_metrics(
    spans: list[Span],
    traced_iterations: list[int],
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Median of each per-layer metric over the traced iterations.

    ``parallel.speedup`` divides serial phase-1 time (from the reference
    runs when the workload has them, else from the iterations themselves)
    by ``parallel.map_s``; ``obs.tracing_overhead_s`` is the traced minus
    the untraced median iteration time of the same run.
    """
    totals = _totals_by_iteration(spans)
    rows = [_layer_values(totals[i]) for i in traced_iterations]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    references = [_layer_values(t) for i, t in totals.items() if i < 0]
    serial = (
        statistics.median(row["simulation.phase1_s"] for row in references)
        if references
        else metrics["simulation.phase1_s"]
    )
    metrics["parallel.speedup"] = _ratio(serial, metrics["parallel.map_s"])
    metrics["obs.tracing_overhead_s"] = statistics.median(traced_walls) - statistics.median(
        untraced_walls
    )
    return metrics
