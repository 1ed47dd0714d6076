"""k-nearest-neighbours classifier ("KNN" in Tables 1 and 2).

The paper notes "KNN achieved best performance for K = 5", so 5 is the
default.  Distances are Euclidean over internally z-scored features
(without scaling, the count-valued usage features would dominate).
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_X_y
from .preprocessing import StandardScaler

__all__ = ["KNeighborsClassifier"]


class KNeighborsClassifier(BaseEstimator, ClassifierMixin):
    """Brute-force kNN with uniform (majority) votes.

    Parameters
    ----------
    n_neighbors:
        K; the paper's best value is 5.
    """

    def __init__(self, n_neighbors: int = 5) -> None:
        self.n_neighbors = n_neighbors

    def fit(self, X, y) -> "KNeighborsClassifier":
        X, y = check_X_y(X, y)
        self._encoded = self._encode_labels(y)
        self._scaler = StandardScaler().fit(X)
        self._train = self._scaler.transform(X)
        return self

    def _neighbor_votes(self, X: np.ndarray) -> np.ndarray:
        """Per-query class votes from the K nearest training points.

        Fully vectorised: each chunk's votes are counted in one
        ``bincount`` over flattened (query, class) cells — no per-row
        Python loop.  Counts are exact integers, so results match the
        naive per-row scatter bit for bit.
        """
        Z = self._scaler.transform(check_array(X))
        k = min(self.n_neighbors, self._train.shape[0])
        n_classes = len(self.classes_)
        votes = np.zeros((Z.shape[0], n_classes), dtype=np.float64)
        # Chunk queries to bound the distance-matrix memory footprint.
        chunk = max(1, 2_000_000 // max(1, self._train.shape[0]))
        for start in range(0, Z.shape[0], chunk):
            block = Z[start : start + chunk]
            m = block.shape[0]
            d2 = (
                np.sum(block**2, axis=1)[:, None]
                - 2.0 * block @ self._train.T
                + np.sum(self._train**2, axis=1)[None, :]
            )
            np.maximum(d2, 0.0, out=d2)
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            cells = np.repeat(np.arange(m), k) * n_classes + self._encoded[nearest].ravel()
            votes[start : start + m] = np.bincount(
                cells, minlength=m * n_classes
            ).reshape(m, n_classes)
        return votes

    def predict_proba(self, X) -> np.ndarray:
        votes = self._neighbor_votes(X)
        return votes / votes.sum(axis=1, keepdims=True)  # each row totals K >= 1
