"""Keyword-search rank model for the simulated Play Store.

§2 of the paper: "Some of the factors with most impact on search rank
are the number of installs and reviews, and the aggregate rating of the
app" and developers "need to achieve top-5 rank in keyword searches".
This module scores apps on those factors so the simulation (and the
evasion-cost example) can quantify what an ASO campaign buys.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import App, Catalog

__all__ = ["SearchRankModel"]

#: Relative weight of each ranking factor (counts are log-scaled).
INSTALLS_WEIGHT = 1.0
REVIEWS_WEIGHT = 0.8
RATING_WEIGHT = 1.5
RELEVANCE_WEIGHT = 2.0


class SearchRankModel:
    """Deterministic search scoring over the catalog.

    ``score = w_i * log1p(installs) + w_r * log1p(reviews)
            + w_s * rating + w_k * keyword_relevance``, with the weights
    the ``*_WEIGHT`` constants above.

    Keyword relevance is a crude token match on title/package — enough
    to make campaigns for a target keyword move an app up its result
    list, which is the effect ASO buys.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        # keyword -> (catalog version, relevance array over hosted apps).
        # Relevance depends only on static listing text, so entries stay
        # valid until the catalog mutates.
        self._relevance_cache: dict[str, tuple[int, np.ndarray]] = {}

    def score(self, app: App, keyword: str | None = None) -> float:
        base = (
            INSTALLS_WEIGHT * math.log1p(max(app.install_count, 0))
            + REVIEWS_WEIGHT * math.log1p(max(app.review_count, 0))
            + RATING_WEIGHT * app.aggregate_rating
        )
        if keyword:
            base += RELEVANCE_WEIGHT * self._relevance(app, keyword)
        return base

    @staticmethod
    def _relevance(app: App, keyword: str) -> float:
        keyword = keyword.lower()
        title_tokens = app.title.lower().split()
        if keyword in title_tokens:
            return 2.0
        if keyword in app.title.lower() or keyword in app.package.lower():
            return 1.0
        if keyword == app.category.lower():
            return 0.5
        return 0.0

    def rank_of(self, package: str, keyword: str) -> int:
        """1-based rank of ``package`` among all Play apps for a keyword."""
        target = self._catalog.get(package)
        target_key = (-self.score(target, keyword), package)
        better = 0
        for app in self._catalog.hosted_on_play():
            key = (-self.score(app, keyword), app.package)
            if key < target_key:
                better += 1
        return better + 1

    def _relevance_array(self, keyword: str, hosted: list[App]) -> np.ndarray:
        version = getattr(self._catalog, "version", None)
        cached = self._relevance_cache.get(keyword)
        if cached is not None and version is not None and cached[0] == version:
            return cached[1]
        relevance = np.fromiter(
            (self._relevance(app, keyword) for app in hosted),
            dtype=np.float64,
            count=len(hosted),
        )
        if version is not None:
            self._relevance_cache[keyword] = (version, relevance)
        return relevance

    def ranks_for(
        self,
        pairs: list[tuple[str, str]],
        boosts: dict[str, tuple[int, int]] | None = None,
    ) -> dict[tuple[str, str], int]:
        """Ranks for many (package, keyword) pairs in one catalog pass.

        Equivalent to calling :meth:`rank_of` per pair (same float
        expression term order, same ``(-score, package)`` tie-break)
        but one vectorized score pass per distinct keyword, which is
        what lets the rank tracker sample every campaign daily.

        ``boosts`` overlays per-package (extra installs, extra reviews)
        on top of the catalog counts — the commit phase's view of what
        ASO delivery has added so far without mutating the catalog.
        """
        hosted = self._catalog.hosted_on_play()
        if not hosted or not pairs:
            return {}
        packages = np.array([app.package for app in hosted])
        installs = np.fromiter(
            (max(app.install_count, 0) for app in hosted), np.float64, len(hosted)
        )
        reviews = np.fromiter(
            (max(app.review_count, 0) for app in hosted), np.float64, len(hosted)
        )
        rating = np.fromiter(
            (app.aggregate_rating for app in hosted), np.float64, len(hosted)
        )
        if boosts:
            index = {app.package: i for i, app in enumerate(hosted)}
            for package in sorted(boosts):
                i = index.get(package)
                if i is None:
                    continue
                extra_installs, extra_reviews = boosts[package]
                installs[i] += extra_installs
                reviews[i] += extra_reviews
        base = (
            INSTALLS_WEIGHT * np.log1p(installs)
            + REVIEWS_WEIGHT * np.log1p(reviews)
            + RATING_WEIGHT * rating
        )
        position = {app.package: i for i, app in enumerate(hosted)}
        by_keyword: dict[str, list[str]] = {}
        for package, keyword in pairs:
            by_keyword.setdefault(keyword, []).append(package)
        out: dict[tuple[str, str], int] = {}
        for keyword in sorted(by_keyword):
            scores = base + RELEVANCE_WEIGHT * self._relevance_array(keyword, hosted)
            for package in by_keyword[keyword]:
                i = position[package]
                target = scores[i]
                better = int(np.count_nonzero(scores > target))
                ties_before = int(
                    np.count_nonzero((scores == target) & (packages < package))
                )
                out[(package, keyword)] = better + ties_before + 1
        return out
