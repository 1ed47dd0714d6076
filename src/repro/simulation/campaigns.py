"""ASO campaigns and the communication board that distributes them.

§2: developers hire ASO organisations; admins post jobs to communication
boards (Facebook/WhatsApp/Telegram groups); workers pick up jobs that
specify installs, retention intervals and high-rated reviews.  The board
is also the source of the §7.2 suspicious-app labels: "it was advertised
by workers for promotion on the Facebook groups we infiltrated".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..playstore.catalog import App

__all__ = ["Campaign", "CampaignBoard", "PromoJob", "FrozenCampaign", "FrozenBoard"]


@dataclass(slots=True)
class Campaign:
    """One paid promotion engagement for one app."""

    campaign_id: int
    app_package: str
    target_installs: int
    target_reviews: int
    min_rating: int = 4
    retention_days: float = 7.0
    pay_per_install_usd: float = 0.35
    pay_per_review_usd: float = 0.70
    delivered_installs: int = 0
    delivered_reviews: int = 0

    @property
    def installs_remaining(self) -> int:
        return max(0, self.target_installs - self.delivered_installs)

    @property
    def reviews_remaining(self) -> int:
        return max(0, self.target_reviews - self.delivered_reviews)

    @property
    def payout_usd(self) -> float:
        """Total worker earnings the campaign has paid out so far."""
        return (
            self.delivered_installs * self.pay_per_install_usd
            + self.delivered_reviews * self.pay_per_review_usd
        )


@dataclass(frozen=True, slots=True)
class PromoJob:
    """One unit of work handed to a worker: install (and maybe review)."""

    campaign_id: int
    app_package: str
    wants_review: bool
    min_rating: int
    retention_days: float


@dataclass(frozen=True, slots=True)
class FrozenCampaign:
    """Start-of-day image of one campaign (phase-1 read view)."""

    campaign_id: int
    app_package: str
    installs_remaining: int
    reviews_remaining: int
    min_rating: int
    retention_days: float


@dataclass(frozen=True, slots=True)
class FrozenBoard:
    """Immutable start-of-day view of the whole board, id-ordered.

    Shipped to every phase-1 shard so job selection reads the same
    state regardless of which worker (or how many workers) runs the
    device — the frozen-view half of the determinism contract.
    """

    campaigns: tuple[FrozenCampaign, ...]


class CampaignBoard:
    """The Facebook-group-like job board.

    Tracks every campaign ever advertised (``advertised_packages`` feeds
    the suspicious-label rule).  Workers pick jobs from a start-of-day
    :meth:`freeze` (``phases.ShardBoardView``), preferring campaigns
    with the most remaining work so installs spread across many worker
    devices — the co-install pattern the labeling rule exploits — and
    the phase-2 commit credits each take with :meth:`apply_delivery`.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._campaigns: dict[int, Campaign] = {}
        self._counter = itertools.count(1)

    def post_campaign(
        self,
        app: App,
        target_installs: int | None = None,
        target_reviews: int | None = None,
        retention_days: float | None = None,
    ) -> Campaign:
        campaign = Campaign(
            campaign_id=next(self._counter),
            app_package=app.package,
            target_installs=target_installs
            if target_installs is not None
            else int(self._rng.integers(40, 400)),
            target_reviews=target_reviews
            if target_reviews is not None
            else int(self._rng.integers(20, 200)),
            min_rating=int(self._rng.choice((4, 5), p=(0.3, 0.7))),
            retention_days=retention_days
            if retention_days is not None
            else float(self._rng.choice((3.0, 7.0, 14.0, 30.0))),
        )
        self._campaigns[campaign.campaign_id] = campaign
        return campaign

    def campaigns(self) -> list[Campaign]:
        return list(self._campaigns.values())

    def get(self, campaign_id: int) -> Campaign:
        return self._campaigns[campaign_id]

    def advertised_packages(self) -> set[str]:
        """Every package ever promoted on the board (§7.2 label source)."""
        return {c.app_package for c in self._campaigns.values()}

    def freeze(self) -> FrozenBoard:
        """Immutable snapshot of remaining work, ordered by campaign id."""
        return FrozenBoard(
            campaigns=tuple(
                FrozenCampaign(
                    campaign_id=c.campaign_id,
                    app_package=c.app_package,
                    installs_remaining=c.installs_remaining,
                    reviews_remaining=c.reviews_remaining,
                    min_rating=c.min_rating,
                    retention_days=c.retention_days,
                )
                for cid, c in sorted(self._campaigns.items())
            )
        )

    def apply_delivery(self, campaign_id: int, review: bool = False) -> bool:
        """Commit one frozen-view job take, clamped to the targets.

        Devices working against the same start-of-day snapshot can
        jointly overshoot a campaign's remaining counts; the client only
        ever pays up to the bought targets, so excess takes are dropped
        here.  Returns whether anything was credited — replaying a
        delivery against a completed campaign is a no-op, which is what
        makes commit replay idempotent once targets are reached.
        """
        campaign = self._campaigns[campaign_id]
        credited = False
        if campaign.delivered_installs < campaign.target_installs:
            campaign.delivered_installs += 1
            credited = True
        if review and campaign.delivered_reviews < campaign.target_reviews:
            campaign.delivered_reviews += 1
            credited = True
        return credited

    def total_payout_usd(self) -> float:
        return sum(c.payout_usd for c in self._campaigns.values())
