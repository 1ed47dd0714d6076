"""Retention analysis: how long apps stay installed (§2, §6.3, §7.1).

Retention installs are a paid product ("installing an app on many
devices and keeping it installed for prolonged intervals"), and *inner
retention* is feature (7) of the app classifier.  This module computes
survival-style retention curves over the observation window for apps
installed during the study, split worker vs regular — promoted installs
survive the retention contract then churn, personal installs either
churn fast or persist.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.observations import DeviceObservation
from ..simulation.clock import SECONDS_PER_DAY
from .common import GroupComparison, compare_feature

__all__ = ["RetentionCurve", "RetentionResult", "compute_retention"]


@dataclass(frozen=True)
class RetentionCurve:
    """Fraction of study-time installs still present k days later.

    Right-censored: installs whose window ends before day k without an
    uninstall drop out of that day's denominator.
    """

    days: tuple[int, ...]
    surviving_fraction: tuple[float, ...]
    n_installs: int

    def at(self, day: int) -> float:
        for d, fraction in zip(self.days, self.surviving_fraction):
            if d == day:
                return fraction
        raise KeyError(day)


def _install_lifetimes(obs: DeviceObservation) -> list[tuple[float, bool]]:
    """(observed lifetime days, uninstall observed) per study install."""
    out: list[tuple[float, bool]] = []
    installs: dict[str, float] = {}
    for event in obs.app_changes:
        package = event["package"]
        if event["action"] == "install":
            installs[package] = event["timestamp"]
        elif package in installs:
            out.append(
                ((event["timestamp"] - installs.pop(package)) / SECONDS_PER_DAY, True)
            )
    window_end = obs.uninstalled_at
    for package, installed_at in installs.items():
        out.append(((window_end - installed_at) / SECONDS_PER_DAY, False))
    return out


def _curve(lifetimes: list[tuple[float, bool]], horizon_days: int) -> RetentionCurve:
    days = tuple(range(horizon_days + 1))
    fractions = []
    for day in days:
        # Survivors: still installed at day k.  Known-gone: uninstalled
        # before day k.  Windows that end before k without an uninstall
        # are censored — excluded from day k's denominator.
        survived = sum(1 for lifetime, _ in lifetimes if lifetime >= day)
        known_gone = sum(
            1
            for lifetime, uninstalled in lifetimes
            if uninstalled and lifetime < day
        )
        denominator = survived + known_gone
        fractions.append(survived / denominator if denominator else 1.0)
    return RetentionCurve(
        days=days,
        surviving_fraction=tuple(fractions),
        n_installs=len(lifetimes),
    )


@dataclass
class RetentionResult:
    """Worker-vs-regular retention of study-time installs."""

    worker_curve: RetentionCurve
    regular_curve: RetentionCurve
    lifetime_comparison: GroupComparison


def compute_retention(
    observations: list[DeviceObservation], horizon_days: int = 7
) -> RetentionResult:
    worker_lifetimes: list[tuple[float, bool]] = []
    regular_lifetimes: list[tuple[float, bool]] = []
    for obs in observations:
        target = worker_lifetimes if obs.is_worker else regular_lifetimes
        target.extend(_install_lifetimes(obs))
    return RetentionResult(
        worker_curve=_curve(worker_lifetimes, horizon_days),
        regular_curve=_curve(regular_lifetimes, horizon_days),
        lifetime_comparison=compare_feature(
            "install_lifetime_days",
            [t for t, _ in worker_lifetimes],
            [t for t, _ in regular_lifetimes],
        ),
    )
