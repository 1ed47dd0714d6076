"""Seed derivation for deterministic fan-out.

The parallel layer's contract is that every RNG seed a job will consume
is derived *before* the job is handed to an executor, from a single
well-defined stream, so the result is bit-identical at any worker
count.  :func:`draw_seeds` draws those seeds from an existing
``numpy.random.Generator`` in its serial consumption order.
``cross_validate`` and ``RandomForestClassifier`` use it so that a run
with ``n_jobs=8`` reproduces, byte for byte, the output the serial code
path has produced since the seed release (the per-fold / per-tree seeds
keep their original lineage from ``random_state``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["draw_seeds"]


def draw_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """``n`` integer seeds drawn sequentially from ``rng``.

    Consumes exactly ``n`` draws of ``rng.integers(0, 2**31 - 1)`` — the
    idiom the serial fit loops used — so callers that pre-draw seeds for
    fan-out keep byte-identical outputs with their historical serial
    behaviour.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return [int(rng.integers(0, 2**31 - 1)) for _ in range(n)]
