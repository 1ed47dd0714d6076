"""Helpers that only tests need: seeds for synthetic datasets, a parser
for the Prometheus export, and a one-call lint over a list of paths."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.statan.engine import analyze_source, analyze_tree, iter_python_files
from repro.statan.findings import Finding
from repro.statan.rules import Rule


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


def analyze_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    *,
    n_jobs: int | None = None,
    project: bool = True,
) -> list[Finding]:
    """Analyse every ``*.py`` under ``paths``; findings are sorted by
    (path, line, col, rule).

    With an explicit ``rules`` sequence only those per-file rules run
    (no project pass) — the narrow mode unit tests use.  The default
    runs the full two-phase analysis.
    """
    if rules is not None:
        findings: list[Finding] = []
        for file, label in iter_python_files(paths):
            source = file.read_text(encoding="utf-8")
            findings.extend(analyze_source(source, path=label, rules=rules))
        return sorted(findings, key=Finding.sort_key)
    found, _stats = analyze_tree(
        paths, n_jobs=n_jobs, project=project
    )
    return found
