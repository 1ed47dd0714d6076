"""Feature preprocessing: z-scoring and missing-value imputation.

Several §7.1 features are undefined for some instances (e.g. install-to-
review time when an app was never reviewed from the device); the feature
extractors encode those as NaN and classifiers receive imputed values.
LR, SVM, KNN and LVQ z-score their inputs with :class:`StandardScaler`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import BaseEstimator

__all__ = ["StandardScaler", "SimpleImputer"]


class StandardScaler(BaseEstimator):
    """Z-score features using training mean/std (constant columns pass through)."""

    def __init__(self) -> None:
        pass

    def fit(self, X) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


#: What an all-NaN column imputes to.
FILL_VALUE = 0.0


class SimpleImputer(BaseEstimator):
    """Replace NaN with the column's median; an all-NaN column imputes
    to :data:`FILL_VALUE`."""

    def __init__(self) -> None:
        pass

    def fit(self, X) -> "SimpleImputer":
        X = np.asarray(X, dtype=np.float64)
        with warnings.catch_warnings():
            # An all-NaN column is legal here — it imputes to FILL_VALUE.
            warnings.simplefilter("ignore", category=RuntimeWarning)
            stats = np.nanmedian(X, axis=0)
        self.statistics_ = np.where(np.isnan(stats), FILL_VALUE, stats)
        return self

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64).copy()
        nan_rows, nan_cols = np.nonzero(np.isnan(X))
        X[nan_rows, nan_cols] = self.statistics_[nan_cols]
        return X

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)
