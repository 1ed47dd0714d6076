"""Cross-validation machinery matching the paper's protocol.

Both tables use 10-fold cross-validation.  The paper repeats Table 1's
5 times ("repeated 10-fold cross-validation (n=5)"); ``cross_validate``
runs one repeat, as the experiments do (DESIGN.md §2).  Resampling
(SMOTE / over / under) is applied *inside* each fold, to the training
split only, so no synthetic point ever leaks into validation.

Fold jobs are independent, so ``cross_validate`` fans them out across
worker processes when ``n_jobs > 1``.  Determinism contract (DESIGN.md
§8): every fold's train/test indices and resampling seed are derived
*before* any fan-out, in the exact order the serial loop has always
drawn them, and fold reports are collected by submission index — the
same ``random_state`` yields byte-identical results at any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import obs
from ..parallel import draw_seeds, parallel_map
from .base import check_random_state, check_X_y, clone
from .metrics import ClassificationReport, classification_report
from .sampling import RESAMPLERS

__all__ = [
    "CrossValidationResult",
    "cross_validate",
]


def _stratified_fold_of(y: np.ndarray, n_splits: int, rng: np.random.Generator) -> np.ndarray:
    """Per-sample fold assignment: per-class round-robin after a
    per-class shuffle, preserving class ratios in every fold."""
    n = y.shape[0]
    fold_of = np.empty(n, dtype=np.int64)
    for label in np.unique(y):
        members = rng.permutation(np.nonzero(y == label)[0])
        if members.size < n_splits:
            raise ValueError(
                f"class {label!r} has {members.size} samples, fewer than "
                f"n_splits={n_splits}"
            )
        fold_of[members] = np.arange(members.size) % n_splits
    return fold_of


@dataclass
class CrossValidationResult:
    """Aggregated metrics over all CV folds."""

    fold_reports: list[ClassificationReport] = field(default_factory=list)

    def _mean(self, attr: str) -> float:
        return float(np.mean([getattr(r, attr) for r in self.fold_reports]))

    def _std(self, attr: str) -> float:
        return float(np.std([getattr(r, attr) for r in self.fold_reports]))

    @property
    def precision(self) -> float:
        return self._mean("precision")

    @property
    def recall(self) -> float:
        return self._mean("recall")

    @property
    def f1(self) -> float:
        return self._mean("f1")

    @property
    def accuracy(self) -> float:
        return self._mean("accuracy")

    @property
    def auc(self) -> float:
        return self._mean("auc")

    @property
    def false_positive_rate(self) -> float:
        return self._mean("false_positive_rate")

    def summary(self) -> dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "auc": self.auc,
            "fpr": self.false_positive_rate,
            "f1_std": self._std("f1"),
            "n_folds": float(len(self.fold_reports)),
        }


def _run_fold(
    estimator,
    X: np.ndarray,
    y: np.ndarray,
    train: np.ndarray,
    test: np.ndarray,
    resample: Callable | None,
    resample_seed: int | None,
    model_name: str,
) -> ClassificationReport:
    """Fit/score one pre-drawn CV fold (runs in-process or in a worker)."""
    X_train, y_train = X[train], y[train]
    if resample is not None:
        X_train, y_train = resample(X_train, y_train, random_state=resample_seed)
    model = clone(estimator)
    fit_timer = obs.histogram(
        "ml_fit_seconds", {"model": model_name}, help="per-fold fit wall time"
    )
    predict_timer = obs.histogram(
        "ml_predict_seconds", {"model": model_name}, help="per-fold predict wall time"
    )
    with obs.timer(fit_timer):
        model.fit(X_train, y_train)
    with obs.timer(predict_timer):
        y_pred = model.predict(X[test])
    obs.counter("ml_folds_total", {"model": model_name}).inc()
    y_score = None
    if hasattr(model, "predict_proba"):
        proba = model.predict_proba(X[test])
        if proba.shape[1] == 2:  # both labels seen, so classes_ is [0, 1]
            y_score = proba[:, 1]
    return classification_report(y[test], y_pred, y_score)


def cross_validate(
    estimator,
    X,
    y,
    n_splits: int = 10,
    resample: str | Callable | None = None,
    random_state: int | None = None,
    name: str | None = None,
    n_jobs: int | None = None,
) -> CrossValidationResult:
    """Stratified k-fold CV with in-fold resampling over 0/1 labels;
    class 1 is the positive class of every fold's report.

    Parameters
    ----------
    estimator:
        Unfitted estimator; cloned per fold.
    n_splits:
        Number of folds, at least 2.
    resample:
        ``None``/``"none"``, ``"smote"``, ``"oversample"``,
        ``"undersample"``, or a callable ``(X, y, random_state) -> (X, y)``
        applied to each training split.
    name:
        Label for the per-fold ``ml_fit_seconds``/``ml_predict_seconds``
        timing metrics (defaults to the estimator's class name).
    n_jobs:
        Fold-level worker processes (``None`` → ``REPRO_N_JOBS`` → 1;
        ``<= 0`` → all cores).  Results are bit-identical at any worker
        count; the estimator and any ``resample`` callable must be
        picklable when ``n_jobs > 1``.
    """
    if n_splits < 2:
        raise ValueError(f"n_splits={n_splits}: cross-validation needs at least 2 folds")
    X, y = check_X_y(X, y)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("cross-validation needs 0/1 labels: class 1 is the positive class")
    if isinstance(resample, str):
        resample = RESAMPLERS[resample]
    rng = check_random_state(random_state)
    model_name = name or type(estimator).__name__

    # Derive every fold's indices and seed *before* any fan-out, in the
    # exact order the serial loop draws them: one split seed, then (with
    # resampling) one resample seed per fold.  X and y are validated
    # exactly once above.
    (seed,) = draw_seeds(rng, 1)
    fold_of = _stratified_fold_of(y, n_splits, check_random_state(seed))
    jobs: list[tuple] = []
    for fold in range(n_splits):
        test = np.nonzero(fold_of == fold)[0]
        train = np.nonzero(fold_of != fold)[0]
        resample_seed = draw_seeds(rng, 1)[0] if resample is not None else None
        jobs.append((estimator, X, y, train, test, resample, resample_seed, model_name))

    result = CrossValidationResult()
    result.fold_reports.extend(parallel_map(_run_fold, jobs, n_jobs=n_jobs))
    return result
