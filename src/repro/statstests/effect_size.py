"""Effect sizes.

The paper reports significance (p-values) but not effect magnitudes;
for the reproduction's paper-vs-measured comparisons we also quantify
*how big* each worker-vs-regular contrast is: Cohen's d (standardised
mean difference) and Cliff's delta (ordinal dominance — robust to the
heavy-tailed usage distributions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["cohens_d", "cliffs_delta", "EffectSizes", "effect_sizes"]


def _clean(sample, name: str) -> np.ndarray:
    arr = np.asarray(list(sample), dtype=np.float64).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ValueError(f"sample {name!r} empty after dropping non-finite values")
    return arr


def cohens_d(sample_a, sample_b) -> float:
    """Cohen's d with the pooled standard deviation."""
    a = _clean(sample_a, "a")
    b = _clean(sample_b, "b")
    n_a, n_b = a.size, b.size
    if n_a < 2 or n_b < 2:
        raise ValueError("Cohen's d needs at least two points per group")
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    pooled = ((n_a - 1) * var_a + (n_b - 1) * var_b) / (n_a + n_b - 2)
    if pooled == 0.0:
        return 0.0 if a.mean() == b.mean() else float("inf")
    return float((a.mean() - b.mean()) / np.sqrt(pooled))


def cliffs_delta(sample_a, sample_b) -> float:
    """Cliff's delta: P(a > b) - P(a < b), in [-1, 1].

    Computed in O((n+m) log(n+m)) via rank counting rather than the
    naive O(n*m) pairwise comparison.
    """
    a = np.sort(_clean(sample_a, "a"))
    b = np.sort(_clean(sample_b, "b"))
    # For each a_i: #(b < a_i) - #(b > a_i), via binary search.
    less = np.searchsorted(b, a, side="left")
    greater = b.size - np.searchsorted(b, a, side="right")
    return float((less.sum() - greater.sum()) / (a.size * b.size))


@dataclass(frozen=True)
class EffectSizes:
    """Magnitude summary of a two-group contrast."""

    cohens_d: float
    cliffs_delta: float


def effect_sizes(sample_a, sample_b) -> EffectSizes:
    return EffectSizes(
        cohens_d=cohens_d(sample_a, sample_b),
        cliffs_delta=cliffs_delta(sample_a, sample_b),
    )
