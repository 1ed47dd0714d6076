"""``repro.parallel`` — deterministic parallel execution.

The paper's evaluation is hundreds of independent fit/predict jobs
(repeated 10-fold CV over six classifiers and three resampling
strategies) plus forest fits, one block of trees per worker, and each
simulated study day is one independent job per active device.  This
package fans that work out across cores **without changing a single
output bit**: the contract is that all RNG seeds are derived before
fan-out, results are collected by submission index, and worker-side
:mod:`repro.obs` metrics are merged back into the parent registry.

Everything is dependency-free (``concurrent.futures`` +
``multiprocessing`` from the stdlib).  ``n_jobs=None`` defers to the
``REPRO_N_JOBS`` environment variable; ``<= 0`` means all cores; and
environments where process pools cannot start fall back to serial
execution with identical results.  See DESIGN.md §8 for the
determinism-under-parallelism contract.
"""

from .executor import (
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    parallel_map,
    resolve_n_jobs,
)
from .seeding import draw_seeds, spawn_seeds
from .worker import in_worker, run_job

__all__ = [
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "resolve_n_jobs",
    "parallel_map",
    "spawn_seeds",
    "draw_seeds",
    "in_worker",
    "run_job",
]
