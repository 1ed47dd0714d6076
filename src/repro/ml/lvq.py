"""Learning Vector Quantization ("LVQ" in Tables 1 and 2).

Kohonen's LVQ1 with optional LVQ2.1-style window updates: a small
codebook of labelled prototypes is pulled toward same-class samples and
pushed away from other-class samples, with a linearly decaying learning
rate.  LVQ is the weakest algorithm in both of the paper's tables, which
this implementation reproduces.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y
from .preprocessing import StandardScaler

__all__ = ["LVQClassifier"]


class LVQClassifier(BaseEstimator, ClassifierMixin):
    """LVQ1 prototype classifier.

    Parameters
    ----------
    prototypes_per_class:
        Codebook size per class; prototypes are initialised on random
        same-class training samples.
    learning_rate:
        Initial step size, decayed linearly to zero over training.
    epochs:
        Passes over the (shuffled) training data.
    lvq2:
        If true, applies the LVQ2.1 update (move both nearest prototypes
        when they straddle the class boundary inside ``window``).
    """

    def __init__(
        self,
        prototypes_per_class: int = 4,
        learning_rate: float = 0.3,
        epochs: int = 30,
        lvq2: bool = False,
        window: float = 0.3,
        random_state: int | None = None,
    ) -> None:
        self.prototypes_per_class = prototypes_per_class
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.lvq2 = lvq2
        self.window = window
        self.random_state = random_state

    def fit(self, X, y) -> "LVQClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        rng = check_random_state(self.random_state)

        self._scaler = StandardScaler().fit(X)
        Z = self._scaler.transform(X)

        prototypes, labels = [], []
        for class_index in range(len(self.classes_)):
            members = np.nonzero(encoded == class_index)[0]
            k = min(self.prototypes_per_class, members.size)
            chosen = rng.choice(members, size=k, replace=False)
            prototypes.append(Z[chosen])
            labels.extend([class_index] * k)
        self.prototypes_ = np.vstack(prototypes).astype(np.float64)
        self.prototype_labels_ = np.asarray(labels)

        n = Z.shape[0]
        total_steps = self.epochs * n
        step = 0
        for _ in range(self.epochs):
            for i in rng.permutation(n):
                rate = self.learning_rate * (1.0 - step / total_steps)
                step += 1
                x = Z[i]
                d2 = np.sum((self.prototypes_ - x) ** 2, axis=1)
                nearest = int(np.argmin(d2))
                if self.lvq2:
                    order = np.argsort(d2)
                    a, b = int(order[0]), int(order[1]) if order.size > 1 else (int(order[0]), int(order[0]))
                    la, lb = self.prototype_labels_[a], self.prototype_labels_[b]
                    da, db = np.sqrt(d2[a]) + 1e-12, np.sqrt(d2[b]) + 1e-12
                    in_window = min(da / db, db / da) > (1 - self.window) / (1 + self.window)
                    if la != lb and in_window and (la == encoded[i] or lb == encoded[i]):
                        correct, wrong = (a, b) if la == encoded[i] else (b, a)
                        self.prototypes_[correct] += rate * (x - self.prototypes_[correct])
                        self.prototypes_[wrong] -= rate * (x - self.prototypes_[wrong])
                        continue
                if self.prototype_labels_[nearest] == encoded[i]:
                    self.prototypes_[nearest] += rate * (x - self.prototypes_[nearest])
                else:
                    self.prototypes_[nearest] -= rate * (x - self.prototypes_[nearest])
        return self

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
