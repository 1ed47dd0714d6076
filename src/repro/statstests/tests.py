"""Statistical hypothesis tests used throughout §6 of the paper.

The paper's protocol (§6): Shapiro-Wilk rejects normality for every
feature and Fligner-Killeen rejects equal variances, so the authors run
the Kolmogorov-Smirnov two-sample test plus *both* parametric one-way
ANOVA and non-parametric ANOVA (Kruskal-Wallis) and report all three.

Every test here is implemented from scratch (numpy only) and
cross-checked against scipy.stats in the test suite.  Asymptotic
p-value approximations are used, which is appropriate for the sample
sizes in the study (hundreds of devices, tens of thousands of reviews).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestResult",
    "TooFewSamplesError",
    "ks_2samp",
    "one_way_anova",
    "kruskal_wallis",
    "fligner_killeen",
    "shapiro_wilk",
    "SignificanceBattery",
    "compare_groups",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    name: str
    statistic: float
    pvalue: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.pvalue < alpha

    def __str__(self) -> str:
        return f"{self.name}: stat={self.statistic:.4f}, p={self.pvalue:.3g}"


class TooFewSamplesError(ValueError):
    """A class or group holds fewer samples than a comparison or a
    cross-validation of it needs; the message names it and its size."""


def _as_clean_1d(sample, name: str) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ValueError(f"sample {name!r} is empty after removing non-finite values")
    return arr


def _ks_sf(d: float, n_eff: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lambda)."""
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * d
    if lam < 1e-10:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return float(min(max(total, 0.0), 1.0))


def ks_2samp(sample_a, sample_b) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test (asymptotic p-value).

    D is the supremum distance between the two empirical CDFs.
    """
    a = np.sort(_as_clean_1d(sample_a, "a"))
    b = np.sort(_as_clean_1d(sample_b, "b"))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    return TestResult("ks_2samp", d, _ks_sf(d, n_eff))


def _f_sf(f_stat: float, df1: float, df2: float) -> float:
    """Survival function of the F distribution via the regularised
    incomplete beta function (continued-fraction evaluation)."""
    if f_stat <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f_stat)
    return _reg_inc_beta(df2 / 2.0, df1 / 2.0, x)


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b) (Numerical Recipes betacf)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    max_iter, eps, fpmin = 300, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _chi2_sf(x: float, df: float) -> float:
    """Survival function of the chi-squared distribution, via the
    regularised upper incomplete gamma Q(df/2, x/2)."""
    if x <= 0:
        return 1.0
    return _gammaincc(df / 2.0, x / 2.0)


def _gammaincc(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x)."""
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def _gamma_series(a: float, x: float) -> float:
    if x <= 0:
        return 0.0
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(500):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * 3e-14:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    fpmin = 1e-300
    b = x + 1.0 - a
    c = 1.0 / fpmin
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < fpmin:
            d = fpmin
        c = b + an / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-14:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def one_way_anova(*samples) -> TestResult:
    """Parametric one-way ANOVA (the F test on group means)."""
    groups = [_as_clean_1d(s, f"group{i}") for i, s in enumerate(samples)]
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least two groups")
    k = len(groups)
    n_total = sum(g.size for g in groups)
    grand_mean = np.concatenate(groups).mean()
    ss_between = sum(g.size * (g.mean() - grand_mean) ** 2 for g in groups)
    ss_within = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups)
    df1, df2 = k - 1, n_total - k
    if df2 <= 0 or ss_within == 0.0:
        return TestResult("anova_f", math.inf, 0.0 if ss_between > 0 else 1.0)
    f_stat = (ss_between / df1) / (ss_within / df2)
    return TestResult("anova_f", float(f_stat), _f_sf(float(f_stat), df1, df2))


def _rank_with_ties(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Midranks plus the tie-correction term sum(t^3 - t)."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    tie_term = 0.0
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = midrank
        t = j - i + 1
        if t > 1:
            tie_term += t**3 - t
        i = j + 1
    return ranks, tie_term


def kruskal_wallis(*samples) -> TestResult:
    """Kruskal-Wallis H test — the paper's "non-parametric ANOVA"."""
    groups = [_as_clean_1d(s, f"group{i}") for i, s in enumerate(samples)]
    if len(groups) < 2:
        raise ValueError("Kruskal-Wallis needs at least two groups")
    pooled = np.concatenate(groups)
    n = pooled.size
    ranks, tie_term = _rank_with_ties(pooled)
    h = 0.0
    start = 0
    for g in groups:
        r = ranks[start : start + g.size]
        h += r.sum() ** 2 / g.size
        start += g.size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - tie_term / (n**3 - n) if n > 1 else 1.0
    if correction <= 0:
        return TestResult("kruskal_wallis", 0.0, 1.0)
    h /= correction
    df = len(groups) - 1
    return TestResult("kruskal_wallis", float(h), _chi2_sf(float(h), df))


def fligner_killeen(*samples) -> TestResult:
    """Fligner-Killeen test for homogeneity of variances (median-centred,
    normal-scores version — matches scipy.stats.fligner)."""
    groups = [_as_clean_1d(s, f"group{i}") for i, s in enumerate(samples)]
    if len(groups) < 2:
        raise ValueError("Fligner-Killeen needs at least two groups")
    centred = [np.abs(g - np.median(g)) for g in groups]
    pooled = np.concatenate(centred)
    n = pooled.size
    ranks, _ = _rank_with_ties(pooled)
    # Normal scores a_i = Phi^-1(1/2 + rank/(2(n+1)))
    scores = np.array([_norm_ppf(0.5 + r / (2.0 * (n + 1.0))) for r in ranks])
    grand_mean = scores.mean()
    variance = float(np.sum((scores - grand_mean) ** 2)) / (n - 1)
    stat = 0.0
    start = 0
    for g in centred:
        group_scores = scores[start : start + g.size]
        stat += g.size * (group_scores.mean() - grand_mean) ** 2
        start += g.size
    if variance <= 0:
        return TestResult("fligner_killeen", 0.0, 1.0)
    stat /= variance
    return TestResult("fligner_killeen", float(stat), _chi2_sf(float(stat), len(groups) - 1))


def _norm_ppf(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )


def shapiro_wilk(sample) -> TestResult:
    """Shapiro-Wilk normality test, Royston's AS R94 approximation
    (valid for 4 <= n <= 5000, the range used in the paper's analysis)."""
    x = np.sort(_as_clean_1d(sample, "sample"))
    n = x.size
    if n < 4:
        raise ValueError("Shapiro-Wilk requires n >= 4")
    if n > 5000:
        x = x[np.linspace(0, n - 1, 5000).astype(int)]
        n = 5000
    if x[0] == x[-1]:
        return TestResult("shapiro_wilk", 1.0, 1.0)

    # Expected normal order statistics (Blom approximation) -> weights.
    m = np.array([_norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    m_norm2 = float(np.dot(m, m))
    c = m / math.sqrt(m_norm2)
    u = 1.0 / math.sqrt(n)

    # Royston polynomial corrections for the two extreme weights.
    w_n = (-2.706056 * u**5 + 4.434685 * u**4 - 2.071190 * u**3
           - 0.147981 * u**2 + 0.221157 * u + c[-1])
    w_n1 = (-3.582633 * u**5 + 5.682633 * u**4 - 1.752461 * u**3
            - 0.293762 * u**2 + 0.042981 * u + c[-2])
    weights = np.empty(n)
    if n > 5:
        phi = (m_norm2 - 2 * m[-1] ** 2 - 2 * m[-2] ** 2) / (
            1 - 2 * w_n**2 - 2 * w_n1**2
        )
        weights[2:-2] = m[2:-2] / math.sqrt(phi)
        weights[-1], weights[-2] = w_n, w_n1
        weights[0], weights[1] = -w_n, -w_n1
    else:
        phi = (m_norm2 - 2 * m[-1] ** 2) / (1 - 2 * w_n**2)
        weights[1:-1] = m[1:-1] / math.sqrt(phi)
        weights[-1] = w_n
        weights[0] = -w_n

    centred = x - x.mean()
    denom = float(np.dot(centred, centred))
    if denom <= 0:
        return TestResult("shapiro_wilk", 1.0, 1.0)
    w_stat = float(np.dot(weights, x) ** 2 / denom)
    w_stat = min(w_stat, 1.0)

    # Royston's normalising transformation of (1 - W).
    ln_n = math.log(n)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        if 1.0 - w_stat <= 0 or gamma - math.log(1 - w_stat) <= 0:
            return TestResult("shapiro_wilk", w_stat, 1.0)
        g = -math.log(gamma - math.log(1.0 - w_stat))
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
    else:
        g = math.log(1.0 - w_stat)
        mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n**2 + 0.0038915 * ln_n**3
        sigma = math.exp(-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n**2)
    z = (g - mu) / sigma
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return TestResult("shapiro_wilk", w_stat, float(min(max(p, 0.0), 1.0)))


@dataclass(frozen=True)
class SignificanceBattery:
    """The paper's three-test battery applied to one worker-vs-regular
    feature comparison, plus the normality/variance preconditions."""

    feature: str
    ks: TestResult
    anova: TestResult
    kruskal: TestResult
    shapiro_a: TestResult
    shapiro_b: TestResult
    fligner: TestResult

    def all_significant(self, alpha: float = 0.05) -> bool:
        """True when KS, ANOVA and Kruskal-Wallis all reject at ``alpha``."""
        return (
            self.ks.significant(alpha)
            and self.anova.significant(alpha)
            and self.kruskal.significant(alpha)
        )


def compare_groups(feature: str, sample_a, sample_b) -> SignificanceBattery:
    """Run the §6 protocol on two samples: Shapiro per group, Fligner,
    then KS + parametric ANOVA + Kruskal-Wallis."""
    a = _as_clean_1d(sample_a, "a")
    b = _as_clean_1d(sample_b, "b")
    return SignificanceBattery(
        feature=feature,
        ks=ks_2samp(a, b),
        anova=one_way_anova(a, b),
        kruskal=kruskal_wallis(a, b),
        shapiro_a=shapiro_wilk(a) if a.size >= 4 else TestResult("shapiro_wilk", 1.0, 1.0),
        shapiro_b=shapiro_wilk(b) if b.size >= 4 else TestResult("shapiro_wilk", 1.0, 1.0),
        fligner=fligner_killeen(a, b),
    )
