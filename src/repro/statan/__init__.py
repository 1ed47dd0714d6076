"""repro.statan — AST-based determinism & invariants linter.

A dependency-free static analyzer guarding the invariants that make
seeded simulator runs byte-identical.  Per-file rules:

* **DET001** — unseeded / global / hidden-fallback randomness;
* **DET002** — wall-clock reads bypassing the virtual clock;
* **DET003** — iteration order taken from sets or filesystem listings;
* **BUG001** — mutable default arguments;
* **ML001**  — float equality comparisons in numeric code;
* **OBS001** — ``obs.configure()`` without ``obs.reset()``.

Whole-program rules (run once against the indexed project — symbol
table, approximate call graph, statically extracted record schemas;
DESIGN.md §10):

* **DET004** — entry-point code transitively reaching a DET001-3 sink;
* **PAR001** — unpicklable / state-capturing callables submitted to a
  parallel executor;
* **PAR002** — worker randomness without an explicit pre-drawn seed;
* **SCH001** — store query literals inconsistent with the declared
  ``RecordSchema`` (unknown fields/operators, impossible comparisons);
* **SCH002** — ingest writes or row reads on undeclared fields.

Run it as ``python -m repro lint [--format json] [--n-jobs N]
[--changed]``.  Inline suppressions use ``# statan: disable=RULE``
(same line) or ``# statan: disable-file=RULE``; pre-existing findings
live in the committed ``statan-baseline.json`` and only *new* findings
fail the gate (stale baseline entries fail it too, with the offending
fingerprints listed).  See README "Static analysis" for the workflow.
"""

from __future__ import annotations

from . import checks, project_checks, schema_checks  # noqa: F401  (register rules)
from .baseline import Baseline, load_baseline, partition, save_baseline
from .engine import analyze_source, analyze_tree, collect_suppressions
from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from .project import ProjectContext
from .reporters import LintResult, render_json, render_text, summary_line
from .rules import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    get_rule,
    register,
    register_project,
    rule_ids,
)

__all__ = [
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Rule",
    "ProjectRule",
    "register",
    "register_project",
    "all_rules",
    "all_project_rules",
    "rule_ids",
    "get_rule",
    "analyze_source",
    "analyze_tree",
    "collect_suppressions",
    "ProjectContext",
    "Baseline",
    "load_baseline",
    "save_baseline",
    "partition",
    "LintResult",
    "render_text",
    "render_json",
    "summary_line",
]
