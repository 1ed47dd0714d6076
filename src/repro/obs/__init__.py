"""``repro.obs`` — metrics and tracing.

The paper's deployment leaned on an internal dashboard to watch the
data-collection pipeline (§3); this package is the reproduction's
equivalent nervous system.  It is dependency-free and **off by
default**: the module-level accessors hand out no-op implementations
until :func:`configure` swaps in live ones, so instrumented hot paths
cost one cheap call when observability is disabled and seeded
simulations stay byte-identical either way.

Usage::

    from repro import obs

    obs.configure()                       # enable metrics + tracing
    with obs.trace("ingest.chunk"):
        obs.counter("records_total").inc()
    print(obs.registry().render_prometheus())
    print(obs.tracer().render())
    obs.reset()                           # back to the no-op default
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
)
from .tracing import NullTracer, SpanNode, Tracer

__all__ = [
    "configure",
    "reset",
    "enabled",
    "metrics_enabled",
    "tracing_enabled",
    "registry",
    "tracer",
    "trace",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "collecting",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "SpanNode",
    "Tracer",
    "NullTracer",
    "DEFAULT_BUCKETS",
]

_NULL_REGISTRY = NullRegistry()
_NULL_TRACER = NullTracer()

_registry: MetricsRegistry = _NULL_REGISTRY
_tracer: Tracer = _NULL_TRACER


def configure(
    metrics: bool = True,
    tracing: bool = True,
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Turn observability on for the whole process.

    Returns the live registry.  Components constructed *after* this call
    attach their series to it; call before building the world.  Passing
    ``registry`` lets tests supply their own collection target.
    """
    global _registry, _tracer
    if metrics:
        _registry = registry or MetricsRegistry()
    if tracing:
        _tracer = Tracer()
    return _registry


def reset() -> None:
    """Back to the zero-overhead no-op default."""
    global _registry, _tracer
    _registry = _NULL_REGISTRY
    _tracer = _NULL_TRACER


@contextmanager
def collecting(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Send metric writes to ``registry`` inside the block, then give the
    process its previous registry back (the tracer is left alone)."""
    global _registry
    previous = _registry
    _registry = registry
    try:
        yield registry
    finally:
        _registry = previous


def metrics_enabled() -> bool:
    return _registry is not _NULL_REGISTRY


def tracing_enabled() -> bool:
    return _tracer is not _NULL_TRACER


def enabled() -> bool:
    return metrics_enabled() or tracing_enabled()


def registry() -> MetricsRegistry:
    """The process-wide registry (a no-op sink until configured)."""
    return _registry


def tracer() -> Tracer:
    return _tracer


def trace(name: str):
    """Open a span on the process-wide tracer: ``with obs.trace(...):``."""
    return _tracer.trace(name)


def counter(name: str, labels: dict[str, str] | None = None, help: str = "") -> Counter:
    return _registry.counter(name, labels, help)


def gauge(name: str, labels: dict[str, str] | None = None, help: str = "") -> Gauge:
    return _registry.gauge(name, labels, help)


def histogram(
    name: str,
    labels: dict[str, str] | None = None,
    help: str = "",
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
) -> Histogram:
    return _registry.histogram(name, labels, help, buckets)


def timer(histogram: Histogram | None = None) -> Timer:
    """Time a block of code: ``with obs.timer(hist) as t: ...``.

    All wall-clock duration measurement goes through this (DET002);
    pass a histogram to record the duration, or nothing to just read
    ``t.elapsed`` afterwards.
    """
    return Timer(histogram)
