"""Counter/histogram semantics and the export round-trip."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from tests.helpers import parse_prometheus


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("events_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = MetricsRegistry().counter("events_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.value("x") == 2.0

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("x", {"kind": "fast"}).inc()
        registry.counter("x", {"kind": "slow"}).inc(3)
        assert registry.counter("x", {"kind": "fast"}).value == 1.0
        assert registry.counter("x", {"kind": "slow"}).value == 3.0
        assert registry.value("x") == 0.0  # unlabeled series never created

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", {"a": "1", "b": "2"}).inc()
        assert registry.counter("x", {"b": "2", "a": "1"}).value == 1.0


class TestHistogram:
    def test_counts_sum_mean(self):
        h = MetricsRegistry().histogram("latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.mean == pytest.approx(56.05 / 5)

    def test_cumulative_buckets(self):
        h = MetricsRegistry().histogram("latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        cumulative = dict(h.cumulative_buckets())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 3
        assert cumulative[10.0] == 4
        assert cumulative[math.inf] == 5

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are upper-inclusive: le="1.0" includes 1.0.
        h = MetricsRegistry().histogram("latency", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert dict(h.cumulative_buckets())[1.0] == 1

    def test_quantile_interpolates(self):
        h = MetricsRegistry().histogram("latency", buckets=(1.0, 2.0, 4.0))
        for v in (0.5,) * 50 + (3.0,) * 50:
            h.observe(v)
        assert 0.0 < h.quantile(0.25) <= 1.0
        assert 2.0 < h.quantile(0.9) <= 4.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_to_json_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", {"k": "v"}).inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        doc = registry.to_json()
        assert set(doc) == {"counters", "histograms"}
        assert doc["counters"] == {'c_total{k="v"}': 2.0}
        hist = doc["histograms"]["h"]
        assert hist["count"] == 1 and hist["sum"] == 0.5
        assert hist["buckets"]["+Inf"] == 1

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("records_total", help="records stored").inc(41)
        registry.counter("records_total", {"kind": "fast"}).inc(7)
        h = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE records_total counter" in text
        assert "# HELP records_total records stored" in text
        assert "# TYPE latency_seconds histogram" in text

        samples = parse_prometheus(text)
        assert samples["records_total"] == 41
        assert samples['records_total{kind="fast"}'] == 7
        assert samples['latency_seconds_bucket{le="0.1"}'] == 1
        assert samples['latency_seconds_bucket{le="1"}'] == 2
        assert samples['latency_seconds_bucket{le="+Inf"}'] == 2
        assert samples["latency_seconds_sum"] == pytest.approx(0.55)
        assert samples["latency_seconds_count"] == 2

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().to_json() == {"counters": {}, "histograms": {}}


class TestNullRegistry:
    def test_discards_everything(self):
        registry = NullRegistry()
        registry.counter("x").inc(100)
        registry.histogram("h").observe(1.0)
        assert registry.value("x") == 0.0
        assert registry.to_json() == {"counters": {}, "histograms": {}}
        assert registry.render_prometheus() == ""

    def test_null_series_read_as_zero(self):
        registry = NullRegistry()
        c = registry.counter("x")
        c.inc(10)
        assert c.value == 0.0
        h = registry.histogram("h")
        h.observe(3.0)
        assert h.count == 0
