"""Learning Vector Quantization ("LVQ" in Tables 1 and 2).

Kohonen's LVQ1: a small codebook of labelled prototypes is pulled toward
same-class samples and pushed away from other-class samples, with a
learning rate that decays linearly from :data:`LEARNING_RATE` to zero.
LVQ is the weakest algorithm in both of the paper's tables, which this
implementation reproduces.

Every fit goes through one kernel, :func:`_fit_lockstep`, which steps
the codebooks of a block of fits together: a cross-validation hands it
its folds (:meth:`LVQClassifier.fit_folds`), and ``fit`` is its
one-fold call.  A step updates each fold's nearest prototype in one set
of numpy calls, which pays numpy's per-call overhead once per step
instead of once per fold and step.  Nothing a fold computes depends on
the other folds (DESIGN.md §14), so its codebook has the bytes it gets
fitted alone.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .base import (
    BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y, clone,
)
from .preprocessing import StandardScaler

__all__ = ["LVQClassifier"]

#: Initial step size of every fit.
LEARNING_RATE = 0.3
#: Passes over the shuffled training data in every fit.
EPOCHS = 25
#: Seed of every fit's generator: its prototype draws, then one
#: permutation of the training rows per epoch.
RANDOM_STATE = 0


def _fit_lockstep(models: Sequence["LVQClassifier"], folds: Sequence[tuple]) -> None:
    """Fit ``models[f]`` by LVQ1 on ``folds[f] = (X, y)``, every fold at
    once.

    Each fold keeps its own scaler, generator (its prototype draws, then
    one permutation of its rows per epoch), learning-rate schedule
    ``LEARNING_RATE * (1 - step / (EPOCHS * n))`` and codebook.  The
    codebooks are stacked in one ``(fold, prototype, feature)`` array,
    longest fold first, so that the folds still stepping are always a
    leading slice: a fold with ``n`` rows drops out of an epoch's steps
    after its ``n``-th.  A fold whose class has fewer members than
    ``prototypes_per_class`` has a shorter codebook; its padding rows are
    infinite, so their distance to any sample is ``inf`` and never wins
    the ``argmin``.
    """
    scaled, codes, codebooks, rngs = [], [], [], []
    for model, (X, y) in zip(models, folds):
        X, y = check_X_y(X, y)
        encoded = model._encode_labels(y)
        rng = check_random_state(RANDOM_STATE)
        rngs.append(rng)
        model._scaler = StandardScaler().fit(X)
        Z = model._scaler.transform(X)
        prototypes, labels = [], []
        for class_index in range(len(model.classes_)):
            members = np.nonzero(encoded == class_index)[0]
            k = min(model.prototypes_per_class, members.size)
            chosen = rng.choice(members, size=k, replace=False)
            prototypes.append(Z[chosen])
            labels.extend([class_index] * k)
        model.prototype_labels_ = np.asarray(labels)
        scaled.append(Z)
        codes.append(encoded)
        codebooks.append(np.vstack(prototypes))

    # Fold ``stacked[slot]`` has stacking slot ``slot``: longest first.
    stacked = sorted(range(len(models)), key=lambda f: -scaled[f].shape[0])
    size = np.array([scaled[f].shape[0] for f in stacked])
    n_folds, n_steps = size.size, int(size[0])
    width = max(codebook.shape[0] for codebook in codebooks)
    n_features = scaled[0].shape[1]
    codebook = np.full((n_folds, width, n_features), np.inf)
    prototype_labels = np.full((n_folds, width), -1)
    for slot, f in enumerate(stacked):
        codebook[slot, : codebooks[f].shape[0]] = codebooks[f]
        prototype_labels[slot, : codebooks[f].shape[0]] = models[f].prototype_labels_
    # Row ``slot * width + k`` is prototype ``k`` of stacked fold ``slot``.
    flat_codebook = codebook.reshape(-1, n_features)
    flat_labels = prototype_labels.ravel()
    first_prototype = np.arange(n_folds) * width

    # Every fold's rows in one matrix; ``start[slot]`` is its first row.
    Z = np.concatenate([scaled[f] for f in stacked])
    code = np.concatenate([codes[f] for f in stacked])
    start = size.cumsum() - size
    # Folds still stepping at each step of an epoch.
    stepping = (size[None, :] > np.arange(n_steps)[:, None]).sum(axis=1).tolist()
    position = np.arange(n_steps)[:, None]
    for epoch in range(EPOCHS):
        # Step ``j`` of fold ``slot`` visits row ``rows[j, slot]``; a fold
        # past its last step points at row 0, unread.
        rows = np.zeros((n_steps, n_folds), dtype=np.intp)
        for slot, f in enumerate(stacked):
            rows[: size[slot], slot] = rngs[f].permutation(size[slot]) + start[slot]
        samples, sample_codes = Z.take(rows, axis=0), code.take(rows)
        steps = epoch * size + position
        rates = LEARNING_RATE * (1.0 - steps / (EPOCHS * size))
        for j, m in enumerate(stepping):
            x = samples[j, :m]
            d2 = ((codebook[:m] - x[:, None, :]) ** 2).sum(axis=2)
            nearest = first_prototype[:m] + d2.argmin(axis=1)
            rate = rates[j, :m]
            rate = np.where(flat_labels.take(nearest) == sample_codes[j, :m], rate, -rate)
            p = flat_codebook.take(nearest, axis=0)
            flat_codebook[nearest] = p + rate[:, None] * (x - p)

    for slot, f in enumerate(stacked):
        models[f].prototypes_ = codebook[slot, : codebooks[f].shape[0]].copy()


class LVQClassifier(BaseEstimator, ClassifierMixin):
    """LVQ1 prototype classifier.

    Each fit runs :data:`EPOCHS` passes over the training rows, shuffled
    by a generator seeded with :data:`RANDOM_STATE`.

    Parameters
    ----------
    prototypes_per_class:
        Codebook size per class; prototypes are initialised on random
        same-class training samples.
    """

    def __init__(self, prototypes_per_class: int = 4) -> None:
        self.prototypes_per_class = prototypes_per_class

    def fit(self, X, y) -> "LVQClassifier":
        _fit_lockstep([self], [(X, y)])
        return self

    def fit_folds(self, folds: Sequence[tuple]) -> Iterator[list["LVQClassifier"]]:
        """Fit a clone on every ``(X, y)`` fold in one lockstep block."""
        models = [clone(self) for _ in folds]
        _fit_lockstep(models, folds)
        yield models

    def predict_proba(self, X) -> np.ndarray:
        """Soft scores from inverse distance to the nearest prototype of
        each class (sufficient for ranking/AUC)."""
        Z = self._scaler.transform(check_array(X))
        scores = np.zeros((Z.shape[0], len(self.classes_)), dtype=np.float64)
        d2 = (
            np.sum(Z**2, axis=1)[:, None]
            - 2.0 * Z @ self.prototypes_.T
            + np.sum(self.prototypes_**2, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        for class_index in range(len(self.classes_)):
            mask = self.prototype_labels_ == class_index
            nearest = np.min(d2[:, mask], axis=1)
            scores[:, class_index] = 1.0 / (np.sqrt(nearest) + 1e-9)
        totals = scores.sum(axis=1, keepdims=True)
        return scores / totals
