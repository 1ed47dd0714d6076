"""BENCHMARK.json: shape, names, and agreement with the code that measures."""

import json
import re

from bench import run
from bench.trace import per_layer_metrics
from bench.workloads import WORKLOADS

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_names_match_the_pattern_and_are_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_entries_have_exactly_the_documented_keys():
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_bounds_are_the_ones_the_benchmark_was_specified_with():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds == {
        "iteration_s": 0.1,
        "cpu_s": 0.1,
        "setup_s": 0.2,
        "peak_rss_mb": 0.1,
        "device_days_per_s": 0.1,
    }
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _iteration(traced, ref_wall_s, ref_cpu_s, device_days, variant=0):
    return {
        "traced": traced,
        "variant": variant,
        "ref_wall_s": ref_wall_s,
        "ref_cpu_s": ref_cpu_s,
        "device_days": device_days,
    }


def test_end_to_end_metrics_match_the_code_and_skip_traced_iterations():
    iterations = [_iteration(False, 2.0, 1.5, 10), _iteration(True, 9.0, 9.0, 10)]
    result = {"peak_rss_mb": 100.0, "ref_setup_s": 0.25, "iterations": iterations}
    metrics = run.end_to_end([result], result)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics == {
        "iteration_s": 2.0, "cpu_s": 1.5, "setup_s": 0.25, "peak_rss_mb": 100.0, "device_days_per_s": 5.0
    }


def test_each_input_variant_counts_once_however_often_a_run_visits_it():
    # Variant 1 costs twice variant 0; the run visits variant 0 three times.
    iterations = [
        _iteration(False, t, t, 10, variant=v)
        for t, v in ((1.0, 0), (1.1, 0), (0.9, 0), (2.0, 1), (2.2, 1))
    ]
    result = {"peak_rss_mb": 1.0, "ref_setup_s": 1.0, "iterations": iterations}
    metrics = run.end_to_end([result], result)
    assert abs(metrics["iteration_s"] - (1.0 + 2.1) / 2) < 1e-12


def test_without_simulating_iterations_throughput_comes_from_other_simulations():
    def windows(*seconds):
        return [{"device_days": 30, "ref_wall_s": s} for s in seconds]

    setups = [
        {"ref_setup_s": 0.4, "simulations": windows(2.0)},
        {"ref_setup_s": 0.3, "simulations": windows(3.0)},
    ]
    result = {
        "ref_setup_s": 0.5,
        "simulations": windows(1.0, 1.5, 1.5),
        "peak_rss_mb": 90.0,
        "iterations": [_iteration(False, 3.0, 3.0, 0)],
    }
    metrics = run.end_to_end([*setups, result], result)
    assert metrics["setup_s"] == 0.4 and metrics["device_days_per_s"] == 20.0


def test_per_layer_metrics_match_the_code():
    computed = per_layer_metrics([], [0], [1.0], [1.0])
    assert set(computed) == {m["name"] for m in SPEC["per_layer"]}
