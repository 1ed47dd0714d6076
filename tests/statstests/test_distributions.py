"""Cross-checks of the special functions behind every p-value in the §6
battery (F and chi-squared tails, the incomplete beta and gamma
functions, the inverse normal CDF and tie-aware ranks) against scipy."""

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as ss

from repro.statstests import TestResult as Result
from repro.statstests import compare_groups
from repro.statstests.tests import (
    _chi2_sf,
    _f_sf,
    _gammaincc,
    _ks_sf,
    _norm_ppf,
    _rank_with_ties,
    _reg_inc_beta,
)


class TestTailFunctions:
    # Q(df/2, x/2) sums the series while x/2 < df/2 + 1, else evaluates
    # the continued fraction; the cases cover both, and x <= 0.
    @pytest.mark.parametrize(
        "x, df",
        [(0.5, 1), (1.0, 5), (3.0, 2), (10.0, 3), (40.0, 10), (0.0, 3), (-1.0, 3)],
    )
    def test_chi2_sf_matches_scipy(self, x, df):
        assert _chi2_sf(x, df) == pytest.approx(ss.chi2.sf(x, df), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize(
        "a, x", [(0.5, 0.2), (2.0, 1.5), (2.0, 8.0), (7.5, 3.0), (7.5, 20.0)]
    )
    def test_gammaincc_matches_scipy(self, a, x):
        assert _gammaincc(a, x) == pytest.approx(sp.gammaincc(a, x), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize(
        "f_stat, df1, df2",
        [(0.5, 1, 10), (1.2, 1, 2), (2.0, 2, 30), (5.0, 3, 100), (0.0, 2, 10), (-0.5, 2, 10)],
    )
    def test_f_sf_matches_scipy(self, f_stat, df1, df2):
        assert _f_sf(f_stat, df1, df2) == pytest.approx(
            ss.f.sf(f_stat, df1, df2), rel=1e-9, abs=1e-15
        )

    # x below (a + 1) / (a + b + 2) takes the direct continued fraction,
    # above it the symmetry I_x(a, b) = 1 - I_{1-x}(b, a); then both ends.
    @pytest.mark.parametrize(
        "a, b, x",
        [
            (2.0, 3.0, 0.1), (2.0, 3.0, 0.9), (0.5, 0.5, 0.3), (10.0, 2.0, 0.7),
            (2.0, 3.0, 0.0), (2.0, 3.0, 1.0),
        ],
    )
    def test_reg_inc_beta_matches_scipy(self, a, b, x):
        assert _reg_inc_beta(a, b, x) == pytest.approx(sp.betainc(a, b, x), rel=1e-9)

    def test_ks_sf_is_a_decreasing_probability(self):
        values = [_ks_sf(d, 50.0) for d in np.linspace(0.0, 1.0, 21)]
        assert values[0] == 1.0
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestNormPpf:
    # Lower tail, central region and upper tail of Acklam's approximation.
    @pytest.mark.parametrize("p", [0.001, 0.02, 0.3, 0.5, 0.9, 0.99, 0.999])
    def test_matches_scipy(self, p):
        assert _norm_ppf(p) == pytest.approx(ss.norm.ppf(p), abs=1.2e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_outside_open_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            _norm_ppf(p)


class TestRanks:
    def test_midranks_match_scipy(self, rng):
        values = rng.integers(0, 6, 40).astype(float)
        ranks, _ = _rank_with_ties(values)
        np.testing.assert_allclose(ranks, ss.rankdata(values))

    def test_tie_term_sums_cubes_of_group_sizes(self):
        # One triple and one pair: (27 - 3) + (8 - 2).
        _, tie_term = _rank_with_ties(np.array([5.0, 1.0, 5.0, 2.0, 5.0, 1.0, 9.0]))
        assert tie_term == 30.0

    def test_distinct_values_have_no_tie_term(self):
        ranks, tie_term = _rank_with_ties(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(ranks, [3.0, 1.0, 2.0])
        assert tie_term == 0.0


class TestResults:
    def test_significance_is_strict_at_alpha(self):
        result = Result("t", 1.0, 0.05)
        assert not result.significant(0.05)
        assert result.significant(0.051)

    def test_str_names_statistic_and_pvalue(self):
        assert str(Result("ks_2samp", 0.25, 0.0123)) == "ks_2samp: stat=0.2500, p=0.0123"

    def test_battery_needs_all_three_tests(self, rng):
        # Same mean, different spread: KS rejects, ANOVA does not.
        a = rng.normal(0.0, 1.0, 400)
        b = rng.normal(0.0, 4.0, 400)
        battery = compare_groups("spread", a, b)
        assert battery.ks.significant()
        assert not battery.anova.significant()
        assert not battery.all_significant()

    def test_small_groups_skip_shapiro(self):
        battery = compare_groups("tiny", [1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0, 8.0])
        assert battery.shapiro_a == Result("shapiro_wilk", 1.0, 1.0)
        assert battery.shapiro_b.statistic < 1.0
