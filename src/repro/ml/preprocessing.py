"""Feature preprocessing helpers: scaling and missing-value imputation.

Several §7.1 features are undefined for some instances (e.g. install-to-
review time when an app was never reviewed from the device); the feature
extractors encode those as NaN and classifiers receive imputed values.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator

__all__ = ["StandardScaler", "MinMaxScaler", "SimpleImputer"]


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


class MinMaxScaler(BaseEstimator):
    """Scale features to [0, 1] using the training range."""

    def __init__(self) -> None:
        pass

    def fit(self, X) -> "MinMaxScaler":
        X = np.asarray(X, dtype=np.float64)
        self.min_ = X.min(axis=0)
        span = X.max(axis=0) - self.min_
        span[span == 0.0] = 1.0
        self.span_ = span
        return self

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X - self.min_) / self.span_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


class SimpleImputer(BaseEstimator):
    """Replace NaN with a per-column statistic or constant.

    Strategies: ``"mean"``, ``"median"``, ``"constant"`` (with
    ``fill_value``).  A column that is entirely NaN imputes to
    ``fill_value`` (default 0.0).
    """

    def __init__(self, strategy: str = "median", fill_value: float = 0.0) -> None:
        if strategy not in ("mean", "median", "constant"):
            raise ValueError(f"unknown imputation strategy {strategy!r}")
        self.strategy = strategy
        self.fill_value = fill_value

    def fit(self, X) -> "SimpleImputer":
        X = np.asarray(X, dtype=np.float64)
        if self.strategy == "constant":
            self.statistics_ = np.full(X.shape[1], self.fill_value)
            return self
        import warnings

        with warnings.catch_warnings():
            # An all-NaN column is legal here — it imputes to fill_value.
            warnings.simplefilter("ignore", category=RuntimeWarning)
            if self.strategy == "mean":
                stats = np.nanmean(X, axis=0)
            else:
                stats = np.nanmedian(X, axis=0)
        stats = np.where(np.isnan(stats), self.fill_value, stats)
        self.statistics_ = stats
        return self

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64).copy()
        nan_rows, nan_cols = np.nonzero(np.isnan(X))
        X[nan_rows, nan_cols] = self.statistics_[nan_cols]
        return X

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)
