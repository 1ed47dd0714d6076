"""Dependency-free metrics primitives: counters and histograms.

The registry mirrors the Prometheus data model — a metric *family* is a
name plus a type and help string; each (name, label-set) pair owns one
time series.  Two export formats are supported: the Prometheus text
exposition format (``render_prometheus``) and a JSON document
(``to_json``) that benches archive as ``BENCH_*.json`` perf
trajectories.

Everything here is plain Python with no locks: the reproduction is
single-threaded, and the hot-path cost of an increment is one attribute
add.  A :class:`NullRegistry` (the process-wide default — see
``repro.obs.configure``) turns every operation into a no-op so that
instrumented code costs nothing when observability is off.
"""

from __future__ import annotations

import time
from bisect import bisect_left

__all__ = [
    "Counter",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "DEFAULT_BUCKETS",
]

# Prometheus' classic latency buckets (seconds), plus +Inf implicitly.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelPairs = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str] | None) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelPairs, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing count (events, records, bytes)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed distribution (latencies, batch sizes).

    ``buckets`` are the finite upper bounds; an implicit +Inf bucket
    catches the tail.  Counts are stored per-bucket (non-cumulative) and
    rendered cumulatively, Prometheus style.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """[(upper_bound, cumulative_count), ...] ending with +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self._counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            return 0.0
        target = q * self._count
        running = 0
        lower = 0.0
        for bound, n in zip(self.buckets, self._counts):
            if running + n >= target:
                if n == 0:
                    return bound
                frac = (target - running) / n
                return lower + frac * (bound - lower)
            running += n
            lower = bound
        return self.buckets[-1]


class Timer:
    """Context manager measuring one wall-clock duration.

    ``repro.obs`` owns every ``time.perf_counter`` read in the codebase
    (statan rule DET002); instrumented code times a block with
    ``with obs.timer(histogram): ...`` instead of touching the clock.
    The elapsed duration is observed into ``histogram`` (when given) on
    exit — including early returns and exceptions — and stays available
    as ``.elapsed`` for callers that also want the raw number.
    """

    __slots__ = ("histogram", "elapsed", "_started")

    def __init__(self, histogram: "Histogram | None" = None) -> None:
        self.histogram = histogram
        self.elapsed = 0.0
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._started
        if self.histogram is not None:
            self.histogram.observe(self.elapsed)


class MetricsRegistry:
    """Named collection of metric families.

    ``counter``/``histogram`` are get-or-create: repeated
    calls with the same name + labels return the same series, so
    instrumented code never needs module-level metric globals.
    """

    def __init__(self) -> None:
        # family name -> (kind, help)
        self._families: dict[str, tuple[str, str]] = {}
        # (family name, label key) -> metric instance
        self._series: dict[tuple[str, LabelPairs], object] = {}

    # -- get-or-create ---------------------------------------------------
    def _get(self, kind: str, cls, name: str, labels: dict[str, str] | None,
             help: str, **kwargs):
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, not a {kind}"
            )
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = cls(name, key[1], **kwargs)
            self._series[key] = series
        return series

    def counter(self, name: str, labels: dict[str, str] | None = None,
                help: str = "") -> Counter:
        return self._get("counter", Counter, name, labels, help)

    def histogram(self, name: str, labels: dict[str, str] | None = None,
                  help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get("histogram", Histogram, name, labels, help,
                         buckets=buckets)

    # -- queries ---------------------------------------------------------
    def value(self, name: str) -> float:
        """Current value of an unlabelled counter (0.0 when absent).  A
        labelled series is read through its handle,
        ``counter(name, labels).value``."""
        series = self._series.get((name, ()))
        if series is None:
            return 0.0
        return series.value  # type: ignore[union-attr]

    def series(self, name: str) -> list[object]:
        """Every series of one family, label-sorted."""
        return [m for (n, _), m in sorted(self._series.items()) if n == name]

    # -- worker round-trip -----------------------------------------------
    def snapshot(self) -> dict:
        """Picklable dump of every series, for cross-process merging.

        Parallel workers (``repro.parallel``) collect metrics into a
        private registry, snapshot it, and ship the snapshot back so the
        parent can :meth:`merge` it — per-fold timings survive the
        process boundary.  Series are emitted in sorted order so the
        merge sequence is deterministic.
        """
        series: list[tuple[str, LabelPairs, dict]] = []
        for (name, labels), metric in sorted(self._series.items()):
            if isinstance(metric, Histogram):
                state = {
                    "kind": "histogram",
                    "buckets": metric.buckets,
                    "counts": list(metric._counts),
                    "sum": metric._sum,
                    "count": metric._count,
                }
            else:
                state = {"kind": "counter", "value": metric.value}
            series.append((name, labels, state))
        return {"families": dict(self._families), "series": series}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters add, histograms add per-bucket.
        """
        families = snapshot.get("families", {})
        for name, labels, state in snapshot.get("series", ()):
            _kind, help_text = families.get(name, (state["kind"], ""))
            labels_dict = dict(labels)
            if state["kind"] == "counter":
                self.counter(name, labels_dict, help_text).inc(state["value"])
            elif state["kind"] == "histogram":
                buckets = tuple(state["buckets"])
                hist = self.histogram(name, labels_dict, help_text, buckets=buckets)
                if hist.buckets != buckets:
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket layout differs"
                    )
                for i, count in enumerate(state["counts"]):
                    hist._counts[i] += count
                hist._sum += state["sum"]
                hist._count += state["count"]
            else:
                raise ValueError(f"unknown metric kind {state['kind']!r} in snapshot")

    # -- export ----------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-serialisable snapshot of every series."""
        counters: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for (name, labels), metric in sorted(self._series.items()):
            key = name + _render_labels(labels)
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Histogram):
                histograms[key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "mean": metric.mean,
                    "p50": metric.quantile(0.5),
                    "p95": metric.quantile(0.95),
                    "buckets": {
                        ("+Inf" if bound == float("inf") else repr(bound)): n
                        for bound, n in metric.cumulative_buckets()
                    },
                }
        return {"counters": counters, "histograms": histograms}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._families):
            kind, help_text = self._families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for metric in self.series(name):
                labels = metric.labels  # type: ignore[union-attr]
                if isinstance(metric, Counter):
                    lines.append(f"{name}{_render_labels(labels)} {_fmt(metric.value)}")
                elif isinstance(metric, Histogram):
                    for bound, n in metric.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else _fmt(bound)
                        lines.append(
                            f"{name}_bucket{_render_labels(labels, (('le', le),))} {n}"
                        )
                    lines.append(f"{name}_sum{_render_labels(labels)} {_fmt(metric.sum)}")
                    lines.append(f"{name}_count{_render_labels(labels)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(value)


# -- the zero-overhead disabled path ------------------------------------------


class _NullCounter(Counter):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, amount: float = 1.0) -> None:  # noqa: ARG002
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def observe(self, value: float) -> None:  # noqa: ARG002
        pass


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """Registry whose series discard every write — the global default."""

    def snapshot(self) -> dict:
        return {"families": {}, "series": []}

    def merge(self, snapshot: dict) -> None:  # noqa: ARG002
        # Merging into the no-op registry must not mutate the shared
        # NULL_* singletons its getters hand out.
        pass

    def counter(self, name: str, labels: dict[str, str] | None = None,
                help: str = "") -> Counter:  # noqa: ARG002
        return NULL_COUNTER

    def histogram(self, name: str, labels: dict[str, str] | None = None,
                  help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:  # noqa: ARG002
        return NULL_HISTOGRAM
