"""Probability calibration by isotonic regression.

§9 proposes embedding the classifiers in the Play Store client; an app
store acts on *scores* with an operating threshold chosen for a target
false-positive rate, which requires calibrated probabilities.  The
calibrator is isotonic regression via the pool-adjacent-violators
algorithm (PAVA), implemented from scratch.  The one Platt (sigmoid)
fit is :meth:`repro.ml.svm.LinearSVC._fit_platt`, which squashes the
SVM's margins.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator

__all__ = ["IsotonicCalibrator"]


class IsotonicCalibrator(BaseEstimator):
    """Isotonic (monotone non-decreasing) calibration via PAVA.

    Learns a step function score -> probability; prediction linearly
    interpolates between learned knots and clamps at the ends.
    """

    def __init__(self) -> None:
        pass

    def fit(self, scores, y) -> "IsotonicCalibrator":
        scores = np.asarray(scores, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if scores.shape != y.shape:
            raise ValueError("scores and labels must have the same length")
        order = np.argsort(scores, kind="mergesort")
        x = scores[order]
        target = y[order]

        # Pool adjacent violators: a stack of merged blocks (sum, weight,
        # last-index); adjacent blocks merge while their means violate
        # monotonicity.
        stack: list[tuple[float, float, int]] = []
        for j in range(len(target)):
            current = (target[j], 1.0, j)
            while stack and stack[-1][0] / stack[-1][1] >= current[0] / current[1]:
                prev = stack.pop()
                current = (prev[0] + current[0], prev[1] + current[1], j)
            stack.append(current)
        # Expand blocks to knots.
        knots_x: list[float] = []
        knots_y: list[float] = []
        start = 0
        for total, weight, end in stack:
            mean = total / weight
            knots_x.append(float(x[start]))
            knots_y.append(mean)
            knots_x.append(float(x[end]))
            knots_y.append(mean)
            start = end + 1
        self.knots_x_ = np.asarray(knots_x)
        self.knots_y_ = np.clip(np.asarray(knots_y), 0.0, 1.0)
        return self

    def predict_proba(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64).ravel()
        return np.interp(scores, self.knots_x_, self.knots_y_)
