"""Tests for the z-scorer and the NaN imputer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.preprocessing import SimpleImputer, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_std(self, rng):
        X = rng.normal(5, 3, (100, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_passthrough(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z[:, 0], 0.0)
        assert np.isfinite(Z).all()


class TestSimpleImputer:
    def test_median_fill(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [np.nan, 6.0]])
        Z = SimpleImputer(strategy="median").fit_transform(X)
        assert Z[2, 0] == pytest.approx(2.0)  # median of 1, 3
        assert Z[0, 1] == pytest.approx(5.0)  # median of 4, 6

    def test_mean_fill(self):
        X = np.array([[1.0], [3.0], [np.nan]])
        Z = SimpleImputer(strategy="mean").fit_transform(X)
        assert Z[2, 0] == pytest.approx(2.0)

    def test_constant_fill(self):
        X = np.array([[np.nan, 1.0]])
        Z = SimpleImputer(strategy="constant", fill_value=-1.0).fit_transform(X)
        assert Z[0, 0] == -1.0

    def test_all_nan_column_uses_fill_value(self):
        X = np.array([[np.nan], [np.nan]])
        Z = SimpleImputer(strategy="median", fill_value=0.0).fit_transform(X)
        np.testing.assert_allclose(Z, 0.0)

    def test_transform_uses_fit_statistics(self):
        imputer = SimpleImputer(strategy="median").fit(np.array([[1.0], [3.0]]))
        Z = imputer.transform(np.array([[np.nan]]))
        assert Z[0, 0] == pytest.approx(2.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            SimpleImputer(strategy="mode")

    def test_input_not_mutated(self):
        X = np.array([[np.nan, 1.0]])
        SimpleImputer().fit_transform(X)
        assert np.isnan(X[0, 0])

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 4)),
            elements=st.one_of(st.just(float("nan")), st.floats(-100, 100)),
        )
    )
    def test_property_output_never_nan(self, X):
        Z = SimpleImputer(strategy="median").fit_transform(X)
        assert not np.isnan(Z).any()
