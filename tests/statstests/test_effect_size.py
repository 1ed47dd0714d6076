"""Tests for effect sizes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.statstests import cliffs_delta, cohens_d, effect_sizes


class TestCohensD:
    def test_known_value(self):
        # Two unit-variance groups one mean apart: d = 1.
        rng = np.random.default_rng(0)
        a = rng.normal(1, 1, 5000)
        b = rng.normal(0, 1, 5000)
        assert cohens_d(a, b) == pytest.approx(1.0, abs=0.07)

    def test_sign_follows_direction(self, rng):
        a = rng.normal(0, 1, 100)
        b = rng.normal(2, 1, 100)
        assert cohens_d(a, b) < 0
        assert cohens_d(b, a) > 0

    def test_identical_groups_zero(self, rng):
        a = rng.normal(0, 1, 50)
        assert cohens_d(a, a) == pytest.approx(0.0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            cohens_d([1.0], [2.0, 3.0])

    def test_zero_pooled_variance(self):
        assert cohens_d([3.0, 3.0], [3.0, 3.0, 3.0]) == 0.0
        assert cohens_d([4.0, 4.0], [3.0, 3.0, 3.0]) == float("inf")


class TestCliffsDelta:
    def test_complete_dominance(self):
        assert cliffs_delta([10, 11, 12], [1, 2, 3]) == 1.0
        assert cliffs_delta([1, 2, 3], [10, 11, 12]) == -1.0

    def test_identical_groups_zero(self):
        assert cliffs_delta([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_nonfinite_only_sample_rejected(self):
        with pytest.raises(ValueError):
            cliffs_delta([np.nan, np.inf], [1.0, 2.0])

    def test_matches_naive_computation(self, rng):
        a = rng.integers(0, 20, 40).astype(float)
        b = rng.integers(5, 25, 35).astype(float)
        naive = np.mean(
            [np.sign(x - y) for x in a for y in b]
        )
        assert cliffs_delta(a, b) == pytest.approx(naive, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=40),
        st.lists(st.floats(-100, 100), min_size=2, max_size=40),
    )
    def test_property_bounded_and_antisymmetric(self, a, b):
        delta = cliffs_delta(a, b)
        assert -1.0 <= delta <= 1.0
        assert cliffs_delta(b, a) == pytest.approx(-delta, abs=1e-12)


class TestEffectSizes:
    def test_bundles_both_measures(self, rng):
        a = rng.normal(1.0, 1.0, 60)
        b = rng.normal(0.0, 1.0, 50)
        sizes = effect_sizes(a, b)
        assert sizes.cohens_d == cohens_d(a, b)
        assert sizes.cliffs_delta == cliffs_delta(a, b)
