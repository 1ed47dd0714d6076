"""Unit tests for the deterministic executor abstraction."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    draw_seeds,
    get_executor,
    in_worker,
    parallel_map,
    resolve_n_jobs,
    run_job,
)
from repro.parallel import executor as executor_module
from tests.helpers import spawn_seeds


def square(x):
    return x * x


def add(a, b):
    return a + b


def draw_normal(seed):
    return float(np.random.default_rng(seed).normal())


def bump_counter(amount):
    obs.counter("test_jobs_total").inc(amount)
    obs.histogram("test_job_seconds").observe(0.5)
    return amount


def report_worker_state(_index):
    return in_worker()


def log_then_raise(path):
    with open(path, "a") as handle:
        handle.write("ran\n")
    raise FileNotFoundError(path)


def die_outside(parent_pid, x):
    """Kill the worker process (breaking its pool); run normally in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return bump_counter(x)


class TestResolveNJobs:
    def test_explicit_value_wins(self):
        assert resolve_n_jobs(3) == 3

    def test_one_is_serial(self):
        assert resolve_n_jobs(1) == 1

    def test_none_without_env_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs(None) == 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "4")
        assert resolve_n_jobs(None) == 4

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "0")
        assert resolve_n_jobs(None) >= 1

    def test_nonpositive_means_all_cores(self):
        assert resolve_n_jobs(-1) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_N_JOBS"):
            resolve_n_jobs(None)

    def test_get_executor_picks_serial_or_process(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(2), ProcessExecutor)


class TestSeeding:
    def test_spawn_seeds_deterministic_and_distinct(self):
        a = spawn_seeds(42, 8)
        b = spawn_seeds(42, 8)
        assert a == b
        assert len(set(a)) == 8
        assert spawn_seeds(43, 8) != a

    def test_spawn_seeds_prefix_stable(self):
        # Extending the fan-out must not change earlier children.
        assert spawn_seeds(7, 3) == spawn_seeds(7, 6)[:3]

    def test_draw_seeds_matches_serial_lineage(self):
        # draw_seeds consumes the generator exactly like the historical
        # serial loops did, one integers() call per seed.
        rng = np.random.default_rng(0)
        expected = [int(np.random.default_rng(0).integers(0, 2**31 - 1))]
        assert draw_seeds(rng, 1) == expected
        reference = np.random.default_rng(0)
        reference.integers(0, 2**31 - 1)
        assert draw_seeds(rng, 2) == [
            int(reference.integers(0, 2**31 - 1)) for _ in range(2)
        ]


class TestExecutors:
    def test_serial_map_preserves_order(self):
        result = SerialExecutor().map(square, [(i,) for i in range(6)])
        assert result == [i * i for i in range(6)]

    def test_process_map_preserves_submission_order(self):
        result = ProcessExecutor(2).map(square, [(i,) for i in range(12)])
        assert result == [i * i for i in range(12)]

    def test_process_map_multiple_args(self):
        result = ProcessExecutor(2).map(add, [(i, 10 * i) for i in range(5)])
        assert result == [11 * i for i in range(5)]

    def test_process_map_empty(self):
        assert ProcessExecutor(2).map(square, []) == []

    def test_process_executor_rejects_serial_count(self):
        with pytest.raises(ValueError):
            ProcessExecutor(1)

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes here")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", ExplodingPool)
        result = ProcessExecutor(2).map(square, [(i,) for i in range(4)])
        assert result == [0, 1, 4, 9]

    def test_task_error_propagates_without_serial_rerun(self, tmp_path):
        # A task's own OSError is not a dead pool: each task runs at most
        # once, and the error reaches the caller.
        logs = [tmp_path / f"task{i}.log" for i in range(2)]
        with pytest.raises(FileNotFoundError):
            parallel_map(log_then_raise, [(str(log),) for log in logs], n_jobs=2)
        runs = [log.read_text().count("ran") if log.exists() else 0 for log in logs]
        assert runs[0] == 1
        assert runs[1] <= 1

    def test_broken_pool_fallback_is_counted(self):
        registry = obs.configure(tracing=False, registry=obs.MetricsRegistry())
        try:
            tasks = [(os.getpid(), a) for a in (1, 2, 3)]
            assert parallel_map(die_outside, tasks, n_jobs=2) == [1, 2, 3]
            # The serial re-run keeps the parent's registry live.
            assert obs.registry() is registry
            assert registry.value("parallel_pool_fallbacks_total") == 1.0
            assert registry.value("test_jobs_total") == 6.0
        finally:
            obs.reset()

    def test_parallel_map_matches_serial(self):
        tasks = [(seed,) for seed in spawn_seeds(123, 9)]
        assert parallel_map(draw_normal, tasks, n_jobs=3) == parallel_map(
            draw_normal, tasks, n_jobs=1
        )


class TestWorkerState:
    def test_run_job_sets_and_restores_flag(self):
        assert not in_worker()
        result, snapshot = run_job(report_worker_state, (0,), capture_metrics=False)
        assert result is True
        assert snapshot is None
        assert not in_worker()

    def test_nested_n_jobs_resolves_serial_in_worker(self):
        def probe(_x):
            return resolve_n_jobs(8)

        result, _ = run_job(probe, (0,), capture_metrics=False)
        assert result == 1

    def test_workers_report_worker_state(self):
        flags = parallel_map(report_worker_state, [(i,) for i in range(3)], n_jobs=2)
        assert flags == [True, True, True]
        assert not in_worker()


class TestMetricsRoundTrip:
    def test_worker_metrics_merge_into_parent(self):
        obs.configure(metrics=True, tracing=False, registry=obs.MetricsRegistry())
        try:
            amounts = [1, 2, 3, 4]
            result = parallel_map(bump_counter, [(a,) for a in amounts], n_jobs=2)
            assert result == amounts
            assert obs.counter("test_jobs_total").value == sum(amounts)
            assert obs.histogram("test_job_seconds").count == len(amounts)
        finally:
            obs.reset()

    def test_no_capture_when_metrics_disabled(self):
        obs.reset()
        result = parallel_map(bump_counter, [(a,) for a in (5, 6)], n_jobs=2)
        assert result == [5, 6]
        assert not obs.metrics_enabled()
