"""Shared result types for the §6 measurement analyses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..statstests import (
    EffectSizes,
    SignificanceBattery,
    Summary,
    TooFewSamplesError,
    compare_groups,
    effect_sizes,
    summarize,
)

__all__ = ["GroupComparison", "compare_feature"]


@dataclass(frozen=True)
class GroupComparison:
    """One worker-vs-regular feature comparison in the paper's format:
    per-group descriptive summaries plus the three-test battery."""

    feature: str
    worker: Summary
    regular: Summary
    tests: SignificanceBattery
    effects: EffectSizes

    def significant(self, alpha: float = 0.05) -> bool:
        return self.tests.all_significant(alpha)


def compare_feature(feature: str, worker_values, regular_values) -> GroupComparison:
    """Summaries + KS/ANOVA/Kruskal battery for one feature.

    Raises :class:`TooFewSamplesError` when a group has fewer than two
    finite values: the battery drops the others, and Cohen's d needs two
    points per group.
    """
    worker_values = list(worker_values)
    regular_values = list(regular_values)
    for group, values in (("worker", worker_values), ("regular", regular_values)):
        size = int(np.isfinite(np.asarray(values, dtype=np.float64)).sum())
        if size < 2:
            raise TooFewSamplesError(
                f"{feature}: the {group} group has size {size} after dropping "
                "non-finite values; a group comparison needs at least 2 per group"
            )
    return GroupComparison(
        feature=feature,
        worker=summarize(worker_values),
        regular=summarize(regular_values),
        tests=compare_groups(feature, worker_values, regular_values),
        effects=effect_sizes(worker_values, regular_values),
    )
