"""Helpers that only tests need: seeds for synthetic datasets, a parser
for the Prometheus export, a one-call lint over a list of paths, and a
campaign with hand-set targets."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.statan.engine import analyze_tree
from repro.statan.findings import Finding


def spawn_seeds(root_seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from ``root_seed``.

    Deterministic in ``root_seed``: the same root always yields the same
    children, in the same order, regardless of how many workers later
    consume them.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition-format samples back to ``{sample_name: value}``.

    Supports exactly what ``render_prometheus`` emits (the round-trip is
    unit-tested); sample names keep their label braces verbatim.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float("inf") if value == "+Inf" else float(value)
    return samples


def analyze_paths(paths: Sequence[str | Path], *, n_jobs: int | None = None) -> list[Finding]:
    """Analyse every ``*.py`` under ``paths`` with both passes; findings
    are sorted by (path, line, col, rule)."""
    found, _stats = analyze_tree(paths, n_jobs=n_jobs)
    return found


def post_campaign(board, app, installs: int, reviews: int, retention_days: float | None = None):
    """Post a campaign for ``app``, then overwrite the targets the board
    drew with small hand-set ones."""
    campaign = board.post_campaign(app)
    campaign.target_installs, campaign.target_reviews = installs, reviews
    if retention_days is not None:
        campaign.retention_days = retention_days
    return campaign
