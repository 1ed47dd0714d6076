"""L2-regularised logistic regression ("LR" in Table 1).

Trained by full-batch Newton-Raphson (IRLS) with a gradient-descent
fallback when the Hessian is ill-conditioned.  Inputs are standardised
internally so the optimiser is insensitive to the wildly different
feature scales produced by the usage features (seconds vs counts).
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_X_y
from .preprocessing import StandardScaler

__all__ = ["LogisticRegression"]

#: Inverse L2 strength of every fit (larger = less regularised).
C = 1.0
#: Newton iteration budget of every fit.
MAX_ITER = 100
#: Convergence threshold on the gradient's infinity norm.
TOL = 1e-8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary logistic regression with L2 penalty ``1 / C`` on the
    z-scored coefficients.

    Features are z-scored internally; ``coef_`` and ``intercept_`` fold
    the scaling back out, so they apply to raw features.
    """

    def __init__(self) -> None:
        pass

    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        if len(self.classes_) == 1:
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = 50.0 if self.classes_[0] == 1 else -50.0
            return self
        if len(self.classes_) != 2:
            raise ValueError("LogisticRegression is binary-only")
        target = encoded.astype(np.float64)

        scaler = StandardScaler().fit(X)
        Z = scaler.transform(X)

        n, d = Z.shape
        design = np.column_stack([np.ones(n), Z])
        alpha = 1.0 / C
        # Do not penalise the intercept.
        penalty = np.full(d + 1, alpha)
        penalty[0] = 0.0

        w = np.zeros(d + 1)
        for _ in range(MAX_ITER):
            p = _sigmoid(design @ w)
            gradient = design.T @ (p - target) + penalty * w
            if np.max(np.abs(gradient)) < TOL:
                break
            weights = np.clip(p * (1.0 - p), 1e-10, None)
            hessian = (design * weights[:, None]).T @ design + np.diag(penalty + 1e-10)
            try:
                step = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                step = gradient / (np.linalg.norm(gradient) + 1e-12)
            w -= step

        self.intercept_ = float(w[0] - np.sum(w[1:] * scaler.mean_ / scaler.scale_))
        self.coef_ = w[1:] / scaler.scale_
        return self

    def decision_function(self, X) -> np.ndarray:
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        if len(self.classes_) == 1:
            X = check_array(X)
            return np.ones((X.shape[0], 1), dtype=np.float64)
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])
