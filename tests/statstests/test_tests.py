"""Cross-checks of the from-scratch statistical tests against scipy,
plus edge-case behaviour."""

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.statstests import (
    compare_groups,
    fligner_killeen,
    kruskal_wallis,
    ks_2samp,
    one_way_anova,
    shapiro_wilk,
)


@pytest.fixture()
def samples(rng):
    return rng.lognormal(1.0, 1.0, 250), rng.lognormal(1.4, 1.2, 200)


class TestAgainstScipy:
    def test_ks_statistic_exact(self, samples):
        a, b = samples
        mine, ref = ks_2samp(a, b), ss.ks_2samp(a, b)
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=0.05)

    def test_anova_matches(self, samples):
        a, b = samples
        mine, ref = one_way_anova(a, b), ss.f_oneway(a, b)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=1e-6)

    def test_anova_three_groups(self, rng):
        groups = [rng.normal(i * 0.3, 1.0, 80) for i in range(3)]
        mine, ref = one_way_anova(*groups), ss.f_oneway(*groups)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=1e-6)

    def test_kruskal_matches_with_ties(self, rng):
        a = rng.integers(0, 15, 120).astype(float)  # heavy ties
        b = rng.integers(3, 20, 100).astype(float)
        mine, ref = kruskal_wallis(a, b), ss.kruskal(a, b)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=1e-6)

    def test_fligner_matches(self, samples):
        a, b = samples
        mine, ref = fligner_killeen(a, b), ss.fligner(a, b)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-6)
        assert mine.pvalue == pytest.approx(ref.pvalue, rel=1e-4)

    def test_shapiro_matches_nonnormal(self, samples):
        a, _ = samples
        mine, ref = shapiro_wilk(a), ss.shapiro(a)
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-6)
        # Both reject decisively.
        assert mine.pvalue < 1e-6 and ref.pvalue < 1e-6

    def test_shapiro_matches_normal(self, rng):
        g = rng.normal(0, 1, 300)
        mine, ref = shapiro_wilk(g), ss.shapiro(g)
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-6)
        assert mine.pvalue == pytest.approx(ref.pvalue, abs=0.02)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_ks_agrees_with_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, 40 + seed % 60)
        b = rng.normal(rng.uniform(0, 1), 1, 35 + seed % 40)
        mine, ref = ks_2samp(a, b), ss.ks_2samp(a, b)
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)


class TestBehaviour:
    def test_identical_samples_not_significant(self, rng):
        a = rng.normal(0, 1, 100)
        assert not ks_2samp(a, a).significant()
        assert not one_way_anova(a, a.copy()).significant()
        assert not kruskal_wallis(a, a.copy()).significant()

    def test_shifted_samples_significant(self, rng):
        a = rng.normal(0, 1, 200)
        b = rng.normal(2, 1, 200)
        assert ks_2samp(a, b).significant()
        assert one_way_anova(a, b).significant()
        assert kruskal_wallis(a, b).significant()

    def test_anova_requires_two_groups(self, rng):
        with pytest.raises(ValueError):
            one_way_anova(rng.normal(0, 1, 10))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_2samp([], [1.0, 2.0])

    def test_nonfinite_values_dropped(self):
        result = ks_2samp([1.0, 2.0, np.nan, np.inf, 3.0], [1.1, 2.1, 3.1])
        assert np.isfinite(result.statistic)

    def test_shapiro_minimum_n(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0, 3.0])

    def test_shapiro_constant_sample(self):
        result = shapiro_wilk([2.0] * 20)
        assert result.pvalue == 1.0

    def test_pvalues_in_unit_interval(self, rng):
        for _ in range(5):
            a = rng.exponential(1, 50)
            b = rng.exponential(1.2, 60)
            for result in (
                ks_2samp(a, b),
                one_way_anova(a, b),
                kruskal_wallis(a, b),
                fligner_killeen(a, b),
                shapiro_wilk(a),
            ):
                assert 0.0 <= result.pvalue <= 1.0


class TestCompareGroups:
    def test_battery_structure(self, samples):
        a, b = samples
        battery = compare_groups("feature_x", a, b)
        assert battery.feature == "feature_x"
        assert battery.all_significant()

    def test_paper_pattern_installed_apps(self, rng):
        """Same means, different shapes: KS rejects, ANOVA does not —
        the paper's installed-apps pattern (Fig 6 left)."""
        a = rng.normal(65, 5, 400)
        spread = np.concatenate([rng.normal(55, 2, 200), rng.normal(75, 2, 200)])
        battery = compare_groups("installed", a, spread)
        assert battery.ks.significant()
        assert not battery.anova.significant()
        assert not battery.all_significant()
