"""Tests for descriptive summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.statstests import summarize


class TestSummarize:
    def test_known_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.n == 5
        assert s.mean == pytest.approx(3.0)
        assert s.median == pytest.approx(3.0)
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.total == pytest.approx(15.0)

    def test_nonfinite_dropped(self):
        s = summarize([1.0, float("nan"), 2.0, float("inf")])
        assert s.n == 2

    def test_empty_summary(self):
        s = summarize([])
        assert s.n == 0
        assert math.isnan(s.mean)
        assert s.total == 0.0

    def test_single_value_zero_std(self):
        s = summarize([42.0])
        assert s.std == 0.0

    def test_spread_matches_numpy(self, rng):
        values = rng.lognormal(1.0, 1.0, 101)
        s = summarize(values)
        assert s.std == pytest.approx(np.std(values, ddof=1))
        assert s.q1 == pytest.approx(np.percentile(values, 25))
        assert s.q3 == pytest.approx(np.percentile(values, 75))

    def test_as_dict_uses_report_keys(self):
        s = summarize([1.0, 2.0, 6.0])
        assert s.as_dict() == {
            "n": 3, "mean": 3.0, "median": 2.0, "std": s.std, "min": 1.0,
            "max": 6.0, "q1": 1.5, "q3": 4.0, "total": 9.0,
        }

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_property_order_invariants(self, values):
        s = summarize(values)
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        assert s.minimum <= s.mean <= s.maximum
