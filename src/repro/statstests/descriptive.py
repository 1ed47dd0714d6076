"""Descriptive statistics in the shape the paper reports them.

Nearly every §6 measurement is summarised as "mean = x (M = median,
SD = s, max = m)"; :class:`Summary` captures that quadruple plus a few
extras so analyses and benchmarks can compare them with the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary matching the paper's reporting format."""

    n: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    q1: float
    q3: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "median": self.median,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "q1": self.q1,
            "q3": self.q3,
            "total": self.total,
        }


def summarize(values) -> Summary:
    """Compute a :class:`Summary`, dropping non-finite entries."""
    arr = np.asarray(list(values), dtype=np.float64).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return Summary(0, float("nan"), float("nan"), float("nan"),
                       float("nan"), float("nan"), float("nan"), float("nan"), 0.0)
    # Pairwise summation can land the mean one ULP outside [min, max]
    # (e.g. three copies of the same value); clamp so the invariant
    # min <= mean <= max holds exactly.
    mean = float(min(max(arr.mean(), arr.min()), arr.max()))
    return Summary(
        n=int(arr.size),
        mean=mean,
        median=float(np.median(arr)),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        q1=float(np.percentile(arr, 25)),
        q3=float(np.percentile(arr, 75)),
        total=float(arr.sum()),
    )
