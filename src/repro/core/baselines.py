"""Prior-work baseline detectors that organic ASO workers evade (§1, §10).

The paper motivates RacketStore by noting that existing detectors key on
*lockstep behaviour* (groups of accounts reviewing the same apps
together, e.g. CopyCatch [Beutel et al. 2013], EVILCOHORT
[Stringhini et al. 2015]) or *review bursts* (temporal spikes, e.g.
Fei et al. 2013, BIRDNEST), and that "organic workers ... use their
personal devices to conceal ASO work among everyday activities",
evading them.  To quantify that claim we implement both families as
account-level detectors over the public review stream (no device
telemetry — exactly the data prior work had), and compare their recall
on organic vs dedicated workers against the RacketStore pipeline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..playstore.reviews import ReviewStore
from ..simulation.clock import SECONDS_PER_DAY

__all__ = [
    "LockstepDetector",
    "BurstDetector",
    "BaselineVerdict",
    "evaluate_baseline_on_devices",
]

#: Common apps two accounts must have reviewed close together to be linked.
MIN_COMMON_APPS = 4
#: Largest gap between two accounts' reviews of one app that still links them.
LOCKSTEP_WINDOW_DAYS = 7.0
#: Smallest linked group whose accounts are flagged.
MIN_GROUP_SIZE = 3
#: Length of the sliding window a review burst must fit in.
BURST_WINDOW_DAYS = 3.0
#: Fewest reviews in one window that make a burst.
MIN_BURST_REVIEWS = 5
#: Share of a burst's reviews that must be 4-5 star for it to count.
MIN_POSITIVE_FRACTION = 0.8


@dataclass(frozen=True)
class BaselineVerdict:
    """Per-account verdict from a baseline detector."""

    google_id: str
    score: float
    flagged: bool


class LockstepDetector:
    """Co-review lockstep detection over (account, app) bipartite data.

    Two accounts are *lockstep-linked* when they reviewed at least
    :data:`MIN_COMMON_APPS` common apps with review times within
    :data:`LOCKSTEP_WINDOW_DAYS` of each other on each app.  Accounts
    belonging to a linked group of at least :data:`MIN_GROUP_SIZE` are
    flagged — the CopyCatch-style near-bipartite-clique signal.
    """

    def _links(self, store: ReviewStore, accounts: list[str]) -> dict[str, set[str]]:
        window = LOCKSTEP_WINDOW_DAYS * SECONDS_PER_DAY
        # account -> {app -> timestamp}
        footprints = {
            account: {
                review.app_package: review.timestamp
                for review in store.reviews_by_google_id(account)
            }
            for account in accounts
        }
        # Invert: app -> accounts, to avoid the full O(n^2) over unrelated
        # accounts.
        by_app: dict[str, list[str]] = defaultdict(list)
        for account, apps in footprints.items():
            for app in apps:
                by_app[app].append(account)

        pair_common: dict[tuple[str, str], int] = defaultdict(int)
        for app, reviewers in by_app.items():
            reviewers = sorted(reviewers)
            for i in range(len(reviewers)):
                for j in range(i + 1, len(reviewers)):
                    a, b = reviewers[i], reviewers[j]
                    if abs(footprints[a][app] - footprints[b][app]) <= window:
                        pair_common[(a, b)] += 1

        links: dict[str, set[str]] = defaultdict(set)
        for (a, b), common in pair_common.items():
            if common >= MIN_COMMON_APPS:
                links[a].add(b)
                links[b].add(a)
        return links

    def detect(self, store: ReviewStore, accounts: list[str]) -> list[BaselineVerdict]:
        """Flag accounts in lockstep groups of sufficient size."""
        links = self._links(store, accounts)
        # Connected components over the lockstep graph.
        component: dict[str, int] = {}
        next_id = 0
        for account in accounts:
            if account in component:
                continue
            stack, members = [account], []
            component[account] = next_id
            while stack:
                node = stack.pop()
                members.append(node)
                for neighbour in links.get(node, ()):
                    if neighbour not in component:
                        component[neighbour] = next_id
                        stack.append(neighbour)
            next_id += 1
        sizes = defaultdict(int)
        for account in accounts:
            sizes[component[account]] += 1
        return [
            BaselineVerdict(
                google_id=account,
                score=float(sizes[component[account]]),
                flagged=sizes[component[account]] >= MIN_GROUP_SIZE
                and bool(links.get(account)),
            )
            for account in accounts
        ]


class BurstDetector:
    """Review-burst detection (temporal-spike family).

    An account is flagged when its review stream contains a window of
    :data:`BURST_WINDOW_DAYS` days holding at least
    :data:`MIN_BURST_REVIEWS` reviews, at least
    :data:`MIN_POSITIVE_FRACTION` of them 4-5 star (promotion bursts
    are) — the Fei-et-al./BIRDNEST-style signal.
    """

    def account_score(self, store: ReviewStore, google_id: str) -> float:
        """Max reviews in any sliding window (rating-skew gated)."""
        reviews = store.reviews_by_google_id(google_id)
        if not reviews:
            return 0.0
        times = np.array([r.timestamp for r in reviews])
        ratings = np.array([r.rating for r in reviews])
        window = BURST_WINDOW_DAYS * SECONDS_PER_DAY
        best = 0.0
        start = 0
        for end in range(len(times)):
            while times[end] - times[start] > window:
                start += 1
            count = end - start + 1
            if count >= MIN_BURST_REVIEWS:
                positive = np.mean(ratings[start : end + 1] >= 4)
                if positive >= MIN_POSITIVE_FRACTION:
                    best = max(best, float(count))
        return best

    def detect(self, store: ReviewStore, accounts: list[str]) -> list[BaselineVerdict]:
        out = []
        for account in accounts:
            score = self.account_score(store, account)
            out.append(
                BaselineVerdict(
                    google_id=account,
                    score=score,
                    flagged=score >= MIN_BURST_REVIEWS,
                )
            )
        return out


def evaluate_baseline_on_devices(
    detector,
    store: ReviewStore,
    observations,
) -> dict[str, float]:
    """Device-level recall of an account-level baseline detector.

    A device counts as detected when any of its registered accounts is
    flagged.  Returns recall split by worker kind (the paper's claim:
    baselines catch dedicated devices but miss organic ones) and the
    false-positive rate on regular devices.
    """
    all_accounts = sorted({gid for obs in observations for gid in obs.google_ids})
    verdicts = {v.google_id: v.flagged for v in detector.detect(store, all_accounts)}

    detected = {"organic_worker": 0, "dedicated_worker": 0, "regular": 0}
    totals = {"organic_worker": 0, "dedicated_worker": 0, "regular": 0}
    for obs in observations:
        kind = obs.participant.persona.kind
        totals[kind] += 1
        if any(verdicts.get(gid, False) for gid in obs.google_ids):
            detected[kind] += 1

    def rate(kind: str) -> float:
        return detected[kind] / totals[kind] if totals[kind] else 0.0

    worker_total = totals["organic_worker"] + totals["dedicated_worker"]
    worker_detected = detected["organic_worker"] + detected["dedicated_worker"]
    return {
        "recall_organic": rate("organic_worker"),
        "recall_dedicated": rate("dedicated_worker"),
        "recall_workers": worker_detected / worker_total if worker_total else 0.0,
        "fpr_regular": rate("regular"),
    }
