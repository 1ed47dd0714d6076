"""Support Vector Machine ("SVM" in Table 2).

A linear soft-margin SVM trained by Pegasos-style stochastic subgradient
descent on the hinge loss over internally z-scored features.  For the
device-classification problem (a few hundred rows, ~20 features) the
linear primal solver is accurate and fast.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y
from .preprocessing import StandardScaler

__all__ = ["LinearSVC"]

#: Inverse regularisation of every fit (larger = harder margin).
C = 1.0
#: Passes over the training data in every fit.
EPOCHS = 40
#: Seed of every fit's generator (one permutation of the rows per epoch).
RANDOM_STATE = 0


class LinearSVC(BaseEstimator, ClassifierMixin):
    """Linear SVM via the Pegasos solver (Shalev-Shwartz et al., 2007).

    Minimises  lambda/2 ||w||^2 + mean(hinge)  with lambda = 1/(C * n).
    Probability-like scores come from a Platt-style logistic squash of
    the margin fit post hoc on the training data.
    """

    def __init__(self) -> None:
        pass

    def fit(self, X, y) -> "LinearSVC":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        if len(self.classes_) == 1:
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = 1.0 if self.classes_[0] == 1 else -1.0
            self._platt = (1.0, 0.0)
            return self
        if len(self.classes_) != 2:
            raise ValueError("LinearSVC is binary-only")
        signs = np.where(encoded == 1, 1.0, -1.0)
        rng = check_random_state(RANDOM_STATE)

        scaler = StandardScaler().fit(X)
        Z = scaler.transform(X)

        n, d = Z.shape
        lam = 1.0 / (C * n)
        w = np.zeros(d)
        b = 0.0
        t = 0
        for _ in range(EPOCHS):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                margin = signs[i] * (Z[i] @ w + b)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += eta * signs[i] * Z[i]
                    b += eta * signs[i]
        self.coef_ = w / scaler.scale_
        self.intercept_ = float(b - np.sum(w * scaler.mean_ / scaler.scale_))

        # Platt scaling on training margins: fit sigmoid(a*m + c) to labels.
        margins = Z @ w + b
        self._platt = self._fit_platt(margins, encoded.astype(np.float64))
        return self

    @staticmethod
    def _fit_platt(margins: np.ndarray, target: np.ndarray) -> tuple[float, float]:
        """1-D logistic regression (margin -> probability) via Newton steps."""
        a, c = 1.0, 0.0
        for _ in range(50):
            z = a * margins + c
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
            g_a = np.sum((p - target) * margins)
            g_c = np.sum(p - target)
            w = np.clip(p * (1 - p), 1e-10, None)
            h_aa = np.sum(w * margins**2) + 1e-9
            h_cc = np.sum(w) + 1e-9
            h_ac = np.sum(w * margins)
            det = h_aa * h_cc - h_ac**2
            if abs(det) < 1e-12:
                break
            da = (h_cc * g_a - h_ac * g_c) / det
            dc = (h_aa * g_c - h_ac * g_a) / det
            a -= da
            c -= dc
            if abs(da) < 1e-10 and abs(dc) < 1e-10:
                break
        return float(a), float(c)

    def decision_function(self, X) -> np.ndarray:
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        if len(self.classes_) == 1:
            X = check_array(X)
            return np.ones((X.shape[0], 1), dtype=np.float64)
        a, c = self._platt
        z = a * self.decision_function(X) + c
        p1 = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        if len(self.classes_) == 1:
            X = check_array(X)
            return np.full(X.shape[0], self.classes_[0])
        return self._decode_labels((self.decision_function(X) >= 0.0).astype(int))
