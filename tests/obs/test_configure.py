"""The global no-op default, configure()/reset() and collecting()."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


class TestGlobalState:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert isinstance(obs.registry(), obs.NullRegistry)
        assert isinstance(obs.tracer(), obs.NullTracer)

    def test_noop_instrumentation_costs_nothing_observable(self):
        obs.counter("x").inc()
        with obs.trace("span"):
            obs.histogram("h").observe(1.0)
        assert obs.registry().to_json()["counters"] == {}
        assert obs.tracer().root.children == {}

    def test_configure_swaps_in_live_implementations(self):
        obs.configure()
        assert obs.metrics_enabled() and obs.tracing_enabled()
        obs.counter("x").inc(2)
        with obs.trace("span"):
            pass
        assert obs.registry().value("x") == 2.0
        assert obs.tracer().find("span") is not None

    def test_reset_restores_noop(self):
        obs.configure()
        obs.counter("x").inc()
        obs.reset()
        assert not obs.enabled()
        assert obs.registry().value("x") == 0.0

    def test_configure_accepts_external_registry(self):
        mine = obs.MetricsRegistry()
        returned = obs.configure(registry=mine)
        assert returned is mine
        obs.counter("x").inc()
        assert mine.value("x") == 1.0


class TestCollecting:
    def test_writes_go_to_the_block_registry_then_back(self):
        parent = obs.configure(tracing=False)
        private = obs.MetricsRegistry()
        with obs.collecting(private):
            obs.counter("x").inc(3)
        obs.counter("x").inc()
        assert private.value("x") == 3.0
        assert parent.value("x") == 1.0
        assert obs.registry() is parent

    def test_restores_the_noop_default(self):
        with obs.collecting(obs.MetricsRegistry()):
            assert obs.metrics_enabled()
        assert not obs.enabled()
