"""Worker-side job wrapper: metrics capture and nested-parallelism guard.

``run_job`` is the function a :class:`~repro.parallel.executor.ProcessExecutor`
actually submits.  It does two things the executor contract needs:

- **Metrics capture.**  When the parent process had a live
  :mod:`repro.obs` registry, each worker runs its job against a fresh
  private registry and ships a picklable snapshot back; the parent
  merges snapshots in submission order, so ``python -m repro profile``
  still sees per-fold fit/predict timings when CV folds ran in child
  processes.  (Under ``fork`` the child inherits the parent's registry
  *object*, but writes to that copy would be lost with the process —
  the explicit snapshot round-trip works for every start method.)

- **Nested-parallelism guard.**  While a job runs, this module's
  ``_IN_WORKER`` flag is set, and
  :func:`repro.parallel.executor.resolve_n_jobs` then pins every nested
  ``n_jobs`` to 1.  A forest fit inside a parallel CV fold therefore
  never forks grandchildren.
"""

from __future__ import annotations

from typing import Any, Callable

from .. import obs
from ..obs.metrics import MetricsRegistry

__all__ = ["run_job", "in_worker"]

_IN_WORKER = False


def in_worker() -> bool:
    """True while this process is executing a parallel job."""
    return _IN_WORKER


def run_job(
    fn: Callable[..., Any],
    args: tuple,
    capture_metrics: bool,
) -> tuple[Any, dict | None]:
    """Execute ``fn(*args)``; return ``(result, metrics_snapshot | None)``."""
    global _IN_WORKER
    previous = _IN_WORKER
    _IN_WORKER = True
    try:
        if not capture_metrics:
            return fn(*args), None
        with obs.collecting(MetricsRegistry()) as registry:
            result = fn(*args)
        return result, registry.snapshot()
    finally:
        _IN_WORKER = previous
