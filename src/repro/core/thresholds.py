"""Operating-point selection for deployed detectors.

§8.2: "We prioritize precision, since a low precision would lead the app
market to take wrong actions against many regular devices."  A deployed
store doesn't use the default 0.5 cut — it picks a score threshold for a
target false-positive rate on validation data.  This module computes
operating-point sweeps and selects the threshold for an FPR budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OperatingPoint",
    "threshold_for_fpr",
    "sweep_operating_points",
]


@dataclass(frozen=True)
class OperatingPoint:
    """One threshold with the metrics it achieves on validation data."""

    threshold: float
    precision: float
    recall: float
    false_positive_rate: float
    flagged_fraction: float


def _validate(y_true, scores) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if y_true.shape != scores.shape:
        raise ValueError("labels and scores must have the same length")
    if y_true.size == 0:
        raise ValueError("empty inputs")
    return y_true, scores


def _point_at(y_true: np.ndarray, scores: np.ndarray, threshold: float) -> OperatingPoint:
    flagged = scores >= threshold
    positive = y_true == 1
    tp = int(np.sum(flagged & positive))
    fp = int(np.sum(flagged & ~positive))
    fn = int(np.sum(~flagged & positive))
    tn = int(np.sum(~flagged & ~positive))
    return OperatingPoint(
        threshold=float(threshold),
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        false_positive_rate=fp / (fp + tn) if fp + tn else 0.0,
        flagged_fraction=float(np.mean(flagged)),
    )


def _all_points(y_true: np.ndarray, scores: np.ndarray) -> list[OperatingPoint]:
    """Operating points at every distinct threshold, via cumulative sums
    over the descending-score order (O(n log n))."""
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    positive = (y_true[order] == 1).astype(np.int64)
    tp = np.cumsum(positive)
    fp = np.cumsum(1 - positive)
    total_pos = int(positive.sum())
    total_neg = positive.size - total_pos

    # Threshold at each *last* index of a distinct score value.
    distinct_last = np.nonzero(
        np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    )[0]
    points = []
    for index in distinct_last:
        tp_i, fp_i = int(tp[index]), int(fp[index])
        flagged = index + 1
        points.append(
            OperatingPoint(
                threshold=float(sorted_scores[index]),
                precision=tp_i / flagged if flagged else 1.0,
                recall=tp_i / total_pos if total_pos else 0.0,
                false_positive_rate=fp_i / total_neg if total_neg else 0.0,
                flagged_fraction=flagged / positive.size,
            )
        )
    return points


def _flag_nothing(y_true: np.ndarray, scores: np.ndarray) -> OperatingPoint:
    return _point_at(y_true, scores, float(scores.max()) + 1.0)


def threshold_for_fpr(y_true, scores, max_fpr: float) -> OperatingPoint:
    """The maximum-recall operating point whose FPR stays within
    ``max_fpr``; falls back to flag-nothing if no point qualifies."""
    y_true, scores = _validate(y_true, scores)
    feasible = [
        p for p in _all_points(y_true, scores) if p.false_positive_rate <= max_fpr
    ]
    if not feasible:
        return _flag_nothing(y_true, scores)
    return max(feasible, key=lambda p: (p.recall, -p.threshold))


def sweep_operating_points(y_true, scores, n_points: int = 11) -> list[OperatingPoint]:
    """Evenly spaced threshold sweep (for operating-point tables)."""
    y_true, scores = _validate(y_true, scores)
    thresholds = np.linspace(scores.min(), scores.max(), n_points)
    return [_point_at(y_true, scores, float(t)) for t in thresholds]
