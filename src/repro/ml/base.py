"""Base classes and validation helpers for the from-scratch ML substrate.

The RacketStore paper evaluates five supervised algorithms (XGB, RF, LR,
KNN, LVQ for apps; XGB, RF, SVM, KNN, LVQ for devices).  This package
implements all of them against a minimal, scikit-learn-like estimator
protocol: ``fit(X, y)``, ``predict(X)`` and, for rankers,
``predict_proba(X)``.  Keeping the protocol tiny makes cross-validation,
sampling and the benchmark harness algorithm-agnostic.
"""

from __future__ import annotations

import copy
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "clone",
    "check_X_y",
    "check_array",
    "check_random_state",
]


def check_array(X: Any) -> np.ndarray:
    """Coerce ``X`` to a 2-D float64 array, rejecting NaN/inf values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got ndim={X.ndim}")
    if X.shape[0] == 0:
        raise ValueError("empty feature matrix")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains NaN or infinite values")
    return X


def check_X_y(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and label vector of matching length."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-D label vector, got ndim={y.ndim}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
        )
    return X, y


def check_random_state(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalise a seed or Generator into a ``numpy.random.Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def clone(estimator: "BaseEstimator") -> "BaseEstimator":
    """Return an unfitted deep copy of ``estimator`` (same hyper-parameters)."""
    params = estimator.get_params()
    return type(estimator)(**copy.deepcopy(params))


class BaseEstimator:
    """Minimal estimator base providing parameter introspection.

    Subclasses must store every constructor argument on ``self`` under the
    same name; ``get_params`` reads them back via the constructor signature,
    which is what makes :func:`clone` work.
    """

    def get_params(self) -> dict[str, Any]:
        import inspect

        signature = inspect.signature(type(self).__init__)
        params = {}
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            params[name] = getattr(self, name)
        return params

    def set_params(self, **params: Any) -> "BaseEstimator":
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


class ClassifierMixin:
    """Shared behaviour for binary/multiclass classifiers.

    Provides label encoding (``classes_``) and a default ``predict`` that
    argmaxes ``predict_proba`` when the subclass supplies probabilities.
    """

    classes_: np.ndarray

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        """Map arbitrary labels to 0..K-1, recording ``classes_``."""
        self.classes_, encoded = np.unique(y, return_inverse=True)
        return encoded

    def _decode_labels(self, indices: np.ndarray) -> np.ndarray:
        return self.classes_[indices]

    def fit_folds(self, folds: Sequence[tuple]) -> Iterator[list["ClassifierMixin"]]:
        """Fit a clone on every ``(X, y)`` fold, yielding the fitted models
        in fold order, as lists of the models fitted together.

        Cross-validation fits its folds here.  This default fits one fold
        per list, so a caller that scores each list before asking for the
        next holds one fitted model at a time; a learner that can fit
        several folds in one pass overrides it.
        """
        for X, y in folds:
            yield [clone(self).fit(X, y)]  # type: ignore[arg-type]

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)  # type: ignore[attr-defined]
        return self._decode_labels(np.argmax(proba, axis=1))

    def score(self, X: Any, y: Any) -> float:
        """Mean accuracy on the given test data."""
        X, y = check_X_y(X, y)
        return float(np.mean(self.predict(X) == y))
