"""Span arithmetic on synthetic trees, and the wrap/restore mechanics."""

import pickle

import pytest

import repro.simulation.phases as phases
import repro.simulation.world as world
from bench import trace
from bench.trace import Span, Tracer, outermost, per_layer_metrics, self_seconds


def _tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap;
    # a has child c [2, 3]; d [9, 12] sticks out past the root's end.
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 9.0, 12.0, 0, 0),
    ]


def test_self_time_subtracts_the_union_of_child_intervals():
    # root's children cover [1, 6] and [9, 10]: 6 of its 10 seconds.
    assert self_seconds(_tree()) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_nested_spans_of_one_name_count_once():
    spans = [
        Span("platform.receive", 0.0, 2.0, -1, 0),
        Span("platform.receive", 0.5, 1.5, 0, 0),
        Span("platform.insert", 0.6, 0.7, 1, 0),
        Span("platform.receive", 3.0, 4.0, -1, 0, {"failed": 1}),
    ]
    assert outermost(spans) == [True, False, True, True]
    metrics = per_layer_metrics(spans, [0], [5.0], [4.0])
    assert metrics["platform.receive_s"] == pytest.approx(3.0)
    assert metrics["platform.receive_calls"] == 2
    assert metrics["platform.receive_failed"] == 1
    assert metrics["obs.tracing_overhead_s"] == pytest.approx(1.0)


def test_study_counts_ratios_and_speedup():
    counts = {
        "device_days": 30, "chunks": 10, "duplicates": 2, "malformed": 1,
        "rollbacks": 3, "retransmissions": 4, "redelivered": 5,
    }
    spans = [
        # serial reference run: 4 s of phase 1
        Span("simulation.run_study", 0.0, 6.0, -1, -1, counts),
        Span("parallel.map", 1.0, 5.0, 0, -1, {"tasks": 3}),
        Span("simulation.phase1", 1.0, 5.0, 1, -1),
        # timed iteration: the fan-out takes 8 s
        Span("simulation.run_study", 10.0, 20.0, -1, 1, counts),
        Span("parallel.map", 11.0, 19.0, 3, 1, {"tasks": 6}),
    ]
    metrics = per_layer_metrics(spans, [1], [10.0], [10.0])
    assert metrics["simulation.self_s"] == pytest.approx(2.0)
    assert metrics["simulation.device_days"] == 30
    assert metrics["platform.duplicate_ratio"] == pytest.approx(0.2)
    assert metrics["platform.useful_chunk_ratio"] == pytest.approx(0.7)
    assert metrics["parallel.tasks"] == 6
    assert metrics["parallel.speedup"] == pytest.approx(0.5)


def test_installed_patches_lookup_sites_and_restores_them():
    original = world.commit_day
    tracer = Tracer()
    with tracer.installed(7):
        assert world.commit_day is not original
        # The shard worker pickles by reference while wrapped.
        assert pickle.loads(pickle.dumps(world.run_day_shard)) is phases.run_day_shard
    assert world.commit_day is original
    assert world.run_day_shard is phases.run_day_shard


def test_a_target_that_does_not_resolve_fails_loudly(monkeypatch):
    original = world.commit_day
    monkeypatch.setattr(
        trace,
        "TARGETS",
        (("repro.simulation.world", "commit_day", "simulation.commit"),
         ("repro.simulation.world", "no_such_function", "simulation.gone")),
    )
    with pytest.raises(LookupError, match="no_such_function"):
        with Tracer().installed(0):
            pass
    assert world.commit_day is original
