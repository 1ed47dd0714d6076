"""Timer context manager and registry snapshot/merge round-trip."""

import pytest

from repro import obs
from repro.obs import MetricsRegistry, NullRegistry, Timer


class TestTimer:
    def test_elapsed_recorded(self):
        with obs.timer() as timed:
            sum(range(1000))
        assert timed.elapsed >= 0.0

    def test_observes_into_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("block_seconds")
        with Timer(hist):
            pass
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_observes_on_exception(self):
        registry = MetricsRegistry()
        hist = registry.histogram("block_seconds")
        with pytest.raises(RuntimeError):
            with Timer(hist):
                raise RuntimeError("boom")
        assert hist.count == 1

    def test_without_histogram_is_pure_stopwatch(self):
        timer = obs.timer()
        assert timer.histogram is None
        with timer:
            pass
        assert timer.elapsed >= 0.0


class TestSnapshotMerge:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs_total", {"kind": "fit"}).inc(3)
        registry.histogram("latency_seconds").observe(0.25)
        registry.histogram("latency_seconds").observe(1.5)
        return registry

    def test_roundtrip_into_empty_registry(self):
        source = self._populated()
        target = MetricsRegistry()
        target.merge(source.snapshot())
        assert target.counter("jobs_total", {"kind": "fit"}).value == 3
        hist = target.histogram("latency_seconds")
        assert hist.count == 2
        assert hist.sum == pytest.approx(1.75)

    def test_merge_accumulates(self):
        target = self._populated()
        target.merge(self._populated().snapshot())
        assert target.counter("jobs_total", {"kind": "fit"}).value == 6
        assert target.histogram("latency_seconds").count == 4

    def test_merge_order_independent_totals(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        one, two = MetricsRegistry(), MetricsRegistry()
        one.counter("c").inc(1)
        two.counter("c").inc(2)
        a.merge(one.snapshot())
        a.merge(two.snapshot())
        b.merge(two.snapshot())
        b.merge(one.snapshot())
        assert a.value("c") == b.value("c") == 3

    def test_bucket_mismatch_rejected(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        target = MetricsRegistry()
        target.histogram("h", buckets=(5.0, 10.0))
        with pytest.raises(ValueError, match="bucket"):
            target.merge(source.snapshot())

    def test_snapshot_is_picklable_primitives(self):
        import pickle

        snapshot = self._populated().snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_null_registry_is_inert(self):
        null = NullRegistry()
        assert null.snapshot() == {"families": {}, "series": []}
        null.merge(self._populated().snapshot())  # must not touch singletons
        assert null.counter("anything").value == 0.0
        assert null.histogram("anything").count == 0
