"""Recruitment funnel model (§4).

The paper recruited workers from 16 Facebook ASO groups and regular
users via Instagram ads (136,022 impressions → 61,748 users reached →
2,471 clicks → 614 confirmation emails → 233 installs).  This module
models the funnel as a chain of binomial stages so the §5 dataset-
overview bench can report a simulated funnel next to the paper's, and
so repeat-install behaviour (workers reinstalling to collect the $1
bounty again — Appendix A) has a quantified source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import RECRUITMENT

__all__ = ["FunnelStage", "RecruitmentFunnel", "simulate_funnel", "sample_country"]


def sample_country(rng: np.random.Generator, is_worker: bool) -> str:
    """Draw a participant country from the §4 distribution.

    Paper: Pakistan (W 364 / R 56), India (W 57 / R 153), Bangladesh
    (W 143 / R 5), USA (W 8 / R 2), plus a small remainder.  IP-based
    geolocation is approximate, so the server records this as the
    *apparent* country.
    """
    column = 0 if is_worker else 1
    countries = list(RECRUITMENT.COUNTRIES)
    weights = np.array(
        [RECRUITMENT.COUNTRIES[c][column] for c in countries], dtype=float
    )
    # "other countries from Africa, Asia, South America and Europe (15)".
    countries.append("OTHER")
    weights = np.append(weights, 15.0 * weights.sum() / 788.0)
    return str(rng.choice(countries, p=weights / weights.sum()))


@dataclass(frozen=True)
class FunnelStage:
    name: str
    count: int


@dataclass(frozen=True)
class RecruitmentFunnel:
    """Outcome of one simulated recruitment drive."""

    stages: tuple[FunnelStage, ...]

    def count(self, name: str) -> int:
        for stage in self.stages:
            if stage.name == name:
                return stage.count
        raise KeyError(name)


def simulate_funnel(
    rng: np.random.Generator,
    impressions: int = RECRUITMENT.ADS_SHOWN,
) -> RecruitmentFunnel:
    """Simulate the Instagram recruitment funnel.

    Stage probabilities are the paper's observed conversion rates, so
    at the paper's impression volume the funnel reproduces §4's counts
    in expectation; at other volumes it scales proportionally.
    """
    p_reach = RECRUITMENT.ADS_REACHED / RECRUITMENT.ADS_SHOWN
    p_click = RECRUITMENT.ADS_CLICKED / RECRUITMENT.ADS_REACHED
    p_consent = RECRUITMENT.REGULAR_EMAILED / RECRUITMENT.ADS_CLICKED
    p_install = RECRUITMENT.REGULAR_INSTALLS / RECRUITMENT.REGULAR_EMAILED

    reached = int(rng.binomial(impressions, p_reach))
    clicked = int(rng.binomial(reached, p_click))
    consented = int(rng.binomial(clicked, p_consent))
    installed = int(rng.binomial(consented, p_install))
    return RecruitmentFunnel(
        stages=(
            FunnelStage("impressions", impressions),
            FunnelStage("reached", reached),
            FunnelStage("clicked", clicked),
            FunnelStage("consented", consented),
            FunnelStage("installed", installed),
        )
    )
