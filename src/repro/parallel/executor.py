"""Deterministic executors: serial and process-based fan-out.

The executor contract (DESIGN.md §8) guarantees bit-identical results
at any worker count:

1. **Seeds before fan-out.**  Callers derive every RNG seed a job will
   consume *before* submitting it (see :mod:`repro.parallel.seeding`);
   executors never touch randomness.
2. **Index-ordered collection.**  ``map`` returns results in submission
   order, never completion order.
3. **Metrics round-trip.**  When the parent has a live
   :mod:`repro.obs` registry, worker-side metric writes are snapshotted
   and merged back in submission order (see
   :mod:`repro.parallel.worker`).

``n_jobs`` semantics (shared by every call site): ``None`` defers to the
``REPRO_N_JOBS`` environment variable (absent → serial), ``1`` is
serial, ``>= 2`` uses that many worker processes, and ``<= 0`` means
"all cores".  Process pools that cannot start (no fork/spawn available,
sandboxed environments) or break degrade to the serial path — same
results, no crash — and count one ``parallel_pool_fallbacks_total``.
A task's own exception is not a broken pool: it propagates as raised.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

from .. import obs
from .worker import in_worker, run_job

__all__ = [
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "resolve_n_jobs",
    "parallel_map",
]


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Normalise an ``n_jobs`` argument to a concrete worker count.

    ``None`` reads ``REPRO_N_JOBS`` (unset/empty → 1); ``<= 0`` means
    every available core.  Inside a parallel worker the answer is always
    1, so nested fits never fork grandchildren.
    """
    if in_worker():
        return 1
    if n_jobs is None:
        raw = os.environ.get("REPRO_N_JOBS", "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"REPRO_N_JOBS={raw!r} is not an integer; use e.g. 4, or <= 0 "
                "for all cores"
            ) from exc
    n_jobs = int(n_jobs)
    if n_jobs <= 0:
        return os.cpu_count() or 1
    return n_jobs


class SerialExecutor:
    """In-process executor: the n_jobs=1 reference implementation."""

    n_jobs = 1

    def map(self, fn: Callable[..., Any], tasks: Iterable[tuple]) -> list[Any]:
        return [fn(*args) for args in tasks]


class ProcessExecutor:
    """``concurrent.futures`` process pool with index-ordered collection.

    Results come back in submission order regardless of completion
    order.  If the pool cannot start or take submissions (``OSError``:
    fork unavailable, sandbox restrictions) or breaks
    (``BrokenProcessPool``: a worker died), the full task list is re-run
    serially — jobs are pure functions of their pre-drawn seeds, so the
    fallback returns the same values.  An exception a task raises
    propagates from ``map`` without a serial re-run, and the tasks still
    queued behind it are cancelled rather than run.
    """

    def __init__(self, n_jobs: int) -> None:
        if n_jobs < 2:
            raise ValueError("ProcessExecutor needs n_jobs >= 2; use SerialExecutor")
        self.n_jobs = n_jobs

    def map(self, fn: Callable[..., Any], tasks: Iterable[tuple]) -> list[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.n_jobs, len(tasks)), mp_context=_start_context()
            )
        except OSError:
            return _serial_fallback(fn, tasks)
        with pool:
            try:
                futures = [pool.submit(fn, *args) for args in tasks]
            except (BrokenProcessPool, OSError):
                return _serial_fallback(fn, tasks)
            try:
                return [future.result() for future in futures]
            except BrokenProcessPool:
                return _serial_fallback(fn, tasks)
            except BaseException:
                # A task raised: drop the queued tasks instead of letting
                # the ``with`` exit wait for every one of them to run.
                pool.shutdown(cancel_futures=True)
                raise


def _start_context():
    # Prefer fork (cheap, inherits loaded numpy pages); fall back to the
    # platform default where fork does not exist.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _serial_fallback(fn: Callable[..., Any], tasks: list[tuple]) -> list[Any]:
    obs.counter(
        "parallel_pool_fallbacks_total",
        help="process-pool fan-outs re-run serially because the pool could not run them",
    ).inc()
    return SerialExecutor().map(fn, tasks)


def get_executor(n_jobs: int | None = None) -> SerialExecutor | ProcessExecutor:
    """Executor for a resolved worker count (1 → serial)."""
    resolved = resolve_n_jobs(n_jobs)
    if resolved == 1:
        return SerialExecutor()
    return ProcessExecutor(resolved)


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[tuple],
    n_jobs: int | None = None,
) -> list[Any]:
    """Run ``fn(*args)`` for every task; results in submission order.

    The single entry point the ML and experiment layers use.  Serial
    when ``n_jobs`` resolves to 1 (no wrapper overhead); otherwise jobs
    run in worker processes with metrics capture, and worker registry
    snapshots are merged into the parent registry in submission order.
    ``fn`` and every task argument must be picklable when ``n_jobs > 1``.
    """
    tasks = [tuple(args) for args in tasks]
    executor = get_executor(n_jobs)
    if executor.n_jobs == 1 or len(tasks) < 2:
        return SerialExecutor().map(fn, tasks)
    capture = obs.metrics_enabled()
    pairs = executor.map(run_job, [(fn, args, capture) for args in tasks])
    if capture:
        registry = obs.registry()
        for _result, snapshot in pairs:
            if snapshot is not None:
                registry.merge(snapshot)
    return [result for result, _snapshot in pairs]
