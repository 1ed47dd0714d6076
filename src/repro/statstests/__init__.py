"""Statistical-testing substrate: the §6 test battery and descriptive
summaries in the paper's reporting format."""

from .descriptive import Summary, summarize
from .effect_size import EffectSizes, cliffs_delta, cohens_d, effect_sizes
from .tests import (
    SignificanceBattery,
    TestResult,
    compare_groups,
    fligner_killeen,
    kruskal_wallis,
    ks_2samp,
    one_way_anova,
    shapiro_wilk,
)

__all__ = [
    "Summary",
    "EffectSizes",
    "cliffs_delta",
    "cohens_d",
    "effect_sizes",
    "summarize",
    "SignificanceBattery",
    "TestResult",
    "compare_groups",
    "fligner_killeen",
    "kruskal_wallis",
    "ks_2samp",
    "one_way_anova",
    "shapiro_wilk",
]
