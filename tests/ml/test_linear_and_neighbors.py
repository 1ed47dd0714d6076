"""Tests for LogisticRegression, LinearSVC, KNN and LVQ."""

import numpy as np
import pytest

from repro.ml.knn import KNeighborsClassifier
from repro.ml.logistic import C, LogisticRegression
from repro.ml.lvq import LVQClassifier
from repro.ml.svm import LinearSVC


class TestLogisticRegression:
    def test_accuracy_on_blobs(self, blobs):
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_gradient_vanishes_at_optimum(self, blobs):
        """The fitted coefficients must satisfy the penalised score
        equations of the z-scored problem, mapped back to raw features:
        X^T (p - y) + sigma^2 * w/C = 0 (intercept unpenalised)."""
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        p = model.predict_proba(X)[:, 1]
        grad_w = X.T @ (p - y) + X.std(axis=0) ** 2 * model.coef_ / C
        grad_b = np.sum(p - y)
        assert np.max(np.abs(grad_w)) < 1e-4
        assert abs(grad_b) < 1e-4

    def test_single_class(self):
        X = np.zeros((5, 2))
        model = LogisticRegression().fit(X, np.ones(5, int))
        assert (model.predict(X) == 1).all()

    def test_decision_function_consistent_with_proba(self, blobs):
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        margin = model.decision_function(X)
        p = model.predict_proba(X)[:, 1]
        np.testing.assert_allclose(p, 1 / (1 + np.exp(-margin)), rtol=1e-10)


class TestLinearSVC:
    def test_accuracy_on_blobs(self, blobs):
        X, y = blobs
        model = LinearSVC(random_state=0).fit(X, y)
        assert model.score(X, y) >= 0.94

    def test_margin_sign_matches_prediction(self, blobs):
        X, y = blobs
        model = LinearSVC(random_state=0).fit(X, y)
        margins = model.decision_function(X)
        preds = model.predict(X)
        np.testing.assert_array_equal(preds, (margins >= 0).astype(int))

    def test_platt_probability_monotone_in_margin(self, blobs):
        X, y = blobs
        model = LinearSVC(random_state=0).fit(X, y)
        margins = model.decision_function(X)
        p = model.predict_proba(X)[:, 1]
        order = np.argsort(margins)
        assert np.all(np.diff(p[order]) >= -1e-12)

    def test_multiclass_rejected(self, rng):
        X = rng.normal(0, 1, (30, 2))
        with pytest.raises(ValueError):
            LinearSVC().fit(X, rng.integers(0, 3, 30))

    def test_platt_probabilities_are_distributions(self, blobs):
        X, y = blobs
        proba = LinearSVC(random_state=0).fit(X, y).predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.all((proba >= 0.0) & (proba <= 1.0))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_platt_fit_solves_its_score_equations(self, rng):
        # At the Newton optimum of the 1-D logistic fit, both partial
        # derivatives of the log-loss vanish.
        margins = rng.normal(0.0, 1.5, 400)
        target = (rng.random(400) < 1.0 / (1.0 + np.exp(-2.0 * margins))).astype(float)
        a, c = LinearSVC._fit_platt(margins, target)
        p = 1.0 / (1.0 + np.exp(-(a * margins + c)))
        assert abs(np.sum(p - target)) < 1e-6
        assert abs(np.sum((p - target) * margins)) < 1e-6
        assert a > 0.0

    def test_single_class(self):
        X = np.zeros((4, 3))
        model = LinearSVC().fit(X, np.zeros(4, int))
        assert (model.predict(X) == 0).all()
        np.testing.assert_array_equal(model.predict_proba(X), np.ones((4, 1)))


class TestKNN:
    def test_k1_memorizes(self, blobs):
        X, y = blobs
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_trivial_neighbor_vote(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        assert model.predict([[0.05], [9.9]]).tolist() == [0, 1]

    def test_votes_are_uniform(self):
        # 2 distant majority points outvote 1 adjacent minority point.
        X = np.array([[0.0], [5.0], [5.2]])
        y = np.array([1, 0, 0])
        model = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        assert model.predict([[0.1]])[0] == 0
        np.testing.assert_array_equal(model.predict_proba([[0.1]]), [[2 / 3, 1 / 3]])

    def test_k_larger_than_train_set(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = KNeighborsClassifier(n_neighbors=10).fit(X, y)
        assert model.predict([[0.4]]).shape == (1,)

    def test_scaling_matters_without_standardize(self):
        """A huge-scale irrelevant feature must not dominate after the
        internal z-scoring."""
        rng = np.random.default_rng(0)
        signal = rng.normal(0, 1, 200)
        noise = rng.normal(0, 10_000, 200)
        X = np.column_stack([signal, noise])
        y = (signal > 0).astype(int)
        model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        assert model.score(X, y) >= 0.8


class TestLVQ:
    def test_accuracy_on_blobs(self, blobs):
        X, y = blobs
        model = LVQClassifier().fit(X, y)
        assert model.score(X, y) >= 0.9

    def test_prototype_shapes(self, blobs):
        X, y = blobs
        model = LVQClassifier(prototypes_per_class=3).fit(X, y)
        assert model.prototypes_.shape == (6, X.shape[1])
        assert sorted(set(model.prototype_labels_.tolist())) == [0, 1]

    def test_refit_gives_the_same_codebook(self, blobs):
        # Every fit seeds its generator with lvq.RANDOM_STATE.
        X, y = blobs
        a = LVQClassifier().fit(X, y)
        b = LVQClassifier().fit(X, y)
        assert a.prototypes_.tobytes() == b.prototypes_.tobytes()

    def test_one_prototype_per_class(self, blobs):
        X, y = blobs
        model = LVQClassifier(prototypes_per_class=1).fit(X, y)
        assert model.prototypes_.shape == (2, X.shape[1])
        assert model.prototype_labels_.tolist() == [0, 1]
        assert model.score(X, y) >= 0.9

    def test_small_class_capped_prototypes(self):
        X = np.array([[0.0], [0.1], [5.0], [5.1], [5.2], [5.3]])
        y = np.array([0, 0, 1, 1, 1, 1])
        model = LVQClassifier(prototypes_per_class=4).fit(X, y)
        assert np.sum(model.prototype_labels_ == 0) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: LogisticRegression(),
        lambda: LinearSVC(random_state=0),
        lambda: KNeighborsClassifier(n_neighbors=5),
        lambda: LVQClassifier(),
    ],
    ids=["logistic", "svm", "knn", "lvq"],
)
def test_fit_is_invariant_to_feature_units(make, blobs):
    """Every fit z-scores with the shared StandardScaler, so rescaling and
    shifting a feature (seconds vs. days, say) leaves the model unchanged."""
    X, y = blobs
    scale = np.array([1000.0, 0.001, 7.0, 1.0])
    shift = np.array([-5.0, 300.0, 0.0, 1e4])
    raw = make().fit(X, y)
    moved = make().fit(X * scale + shift, y)
    np.testing.assert_array_equal(raw.predict(X), moved.predict(X * scale + shift))
    np.testing.assert_allclose(
        raw.predict_proba(X), moved.predict_proba(X * scale + shift), atol=1e-8
    )
