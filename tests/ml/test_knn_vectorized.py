"""The vectorised KNN vote scatter against the per-row reference loop."""

import numpy as np
import pytest

from repro.ml import KNeighborsClassifier
from repro.ml.base import check_array
from tests.helpers import spawn_seeds


def make_bench_dataset(
    n_samples: int, n_features: int, root_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic two-class task shaped like the app/device feature
    matrices (a few informative dimensions, the rest noise)."""
    data_seed, label_seed = spawn_seeds(root_seed, 2)
    rng = np.random.default_rng(data_seed)
    y = (np.arange(n_samples) % 3 == 0).astype(np.int64)  # ~1:2 imbalance
    y = np.random.default_rng(label_seed).permutation(y)
    X = rng.normal(size=(n_samples, n_features))
    informative = max(2, n_features // 4)
    X[:, :informative] += 1.5 * y[:, None]
    return X, y


def _reference_knn_votes(model: KNeighborsClassifier, X: np.ndarray) -> np.ndarray:
    """The per-row vote loop the vectorised scatter replaced."""
    Z = model._scaler.transform(check_array(X))
    k = min(model.n_neighbors, model._train.shape[0])
    votes = np.zeros((Z.shape[0], len(model.classes_)), dtype=np.float64)
    chunk = max(1, 2_000_000 // max(1, model._train.shape[0]))
    for start in range(0, Z.shape[0], chunk):
        block = Z[start : start + chunk]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ model._train.T
            + np.sum(model._train**2, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        for i, row in enumerate(nearest):
            if model.weights == "distance":
                w = 1.0 / (np.sqrt(d2[i, row]) + 1e-12)
            else:
                w = np.ones(k)
            np.add.at(votes[start + i], model._encoded[row], w)
    return votes


@pytest.mark.parametrize("weights", ["uniform", "distance"])
def test_vectorized_votes_match_reference_loop(weights):
    X, y = make_bench_dataset(150, 7, root_seed=31)
    model = KNeighborsClassifier(n_neighbors=5, weights=weights).fit(X, y)
    queries, _ = make_bench_dataset(40, 7, root_seed=32)
    assert np.array_equal(
        model._neighbor_votes(queries), _reference_knn_votes(model, queries)
    )


def test_vectorized_votes_match_reference_across_chunks():
    # A training set large enough that the queries span several chunks,
    # exercising the per-chunk scatter into votes[start : start + m].
    X, y = make_bench_dataset(60_000, 3, root_seed=33)
    model = KNeighborsClassifier(n_neighbors=3).fit(X, y)
    queries = X[:80]
    assert np.array_equal(
        model._neighbor_votes(queries), _reference_knn_votes(model, queries)
    )


def test_multiclass_votes_and_proba():
    rng = np.random.default_rng(99)
    X = rng.normal(size=(90, 5))
    y = np.arange(90) % 3
    X += y[:, None]
    model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
    proba = model.predict_proba(X)
    assert proba.shape == (90, 3)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert np.array_equal(
        model._neighbor_votes(X), _reference_knn_votes(model, X)
    )
    assert (model.predict(X) == y).mean() > 0.8
