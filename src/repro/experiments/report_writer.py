"""EXPERIMENTS.md generator: the paper-vs-measured record, regenerable.

Runs every registered experiment plus the findings scorecard against a
workbench and writes the complete markdown document.  The checked-in
EXPERIMENTS.md is the output of one default-cohort run; anyone can
regenerate it (``python -m repro --scale default write-experiments``)
and diff.
"""

from __future__ import annotations

from pathlib import Path

from .common import Workbench
from .findings import check_findings
from .registry import EXPERIMENTS

__all__ = ["generate_experiments_md"]

_PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Auto-generated record of every table and figure in the paper's
evaluation, reproduced on the simulated cohort (see DESIGN.md for the
substitution rationale).  Regenerate with:

```bash
python -m repro --scale default write-experiments --out EXPERIMENTS.md
```

**Reading guide.**  Absolute corpus sizes are scaled (hundreds of
devices instead of 803; thousands of crawled reviews instead of 110M);
what is calibrated — and what the tables below compare — is per-device
and per-app behaviour: account counts, install-to-review delays, churn,
stopped apps, review volumes, classifier metrics.  "Shape" means the
paper's qualitative claim: who wins, by roughly what factor, which
contrasts are significant.

## Findings scorecard

Every qualitative claim in §6-§8, checked programmatically
(`repro.experiments.findings`):

"""

_DEVIATIONS = """\
## Known deviations and why

* **Scale.**  The cohort is the paper's *classifier* cohort (178 worker
  + 88 regular eligible devices) plus dropouts, not the full 803-device
  deployment; `SimulationConfig.paper_scale()` runs the larger cohort.
  Snapshot and review corpus totals scale accordingly.
* **Figure 4 maxima.**  The paper reports up to 55k snapshots/day per
  device, which exceeds the 5 s fast cadence's theoretical 17,280/day —
  their count evidently includes per-record rows.  We count periodic
  samples exactly, so our per-day maxima are lower; medians and the
  ">=100/day for most devices" claim match.
* **Figure 13 per-feature order.**  The paper's top-2 (accounts that
  reviewed the app; install-to-review time) carry substantial importance
  here too, but our synthetic foreground-usage signal is cleaner than
  real telemetry, so usage/churn features rank above them under mean
  decrease in Gini.  The permutation-importance cross-check (reported in
  the same bench) ranks review-behaviour features high; the bench
  asserts the robust family-level claim rather than an exact ordering.
* **Classifier ceilings.**  Synthetic personas are more self-consistent
  than humans, so device-classifier F1/AUC land a few points above the
  paper's 95.29%/0.9455 even with matched features and protocol.  The
  algorithm ranking (XGB/RF at the top, then SVM/KNN, LVQ last with a
  recall deficit) and the low-FPR regime match.
* **Table 1 CV repeats.**  The paper repeats Table 1's 10-fold
  cross-validation five times; the reproduction runs it once
  (`DetectionPipeline`'s `app_cv_repeats=1`), so every Table 1 and F14
  number comes from a single 10-fold pass.
* **Install-to-review joins.**  Counts scale with the cohort (the paper
  joined 40,397 worker reviews; we join ~14k on the default cohort) —
  the delay distributions, not the counts, are the calibrated quantity.
* **Interviews and recruitment ethnography** (§6.2/§6.3 quotes,
  Appendix B-D) have no computational content to reproduce; the
  recruitment *funnel* and §4 country mix are modelled.
"""


def generate_experiments_md(workbench: Workbench, out_path: str | Path) -> str:
    """Run everything and write the markdown document; returns the text."""
    parts: list[str] = [_PREAMBLE]

    results = check_findings(workbench)
    parts.append("| id | section | claim | status | measured |")
    parts.append("|---|---|---|---|---|")
    for result in results:
        finding = result.finding
        status = "holds" if result.holds else "**DIFFERS**"
        parts.append(
            f"| {finding.finding_id} | {finding.section} | {finding.statement} "
            f"| {status} | {result.measured} |"
        )
    holding = sum(r.holds for r in results)
    parts.append("")
    parts.append(f"**{holding}/{len(results)} findings hold on this run.**")
    parts.append("")

    parts.append("## Per-experiment reports\n")
    for experiment_id, runner in EXPERIMENTS.items():
        report = runner(workbench)
        parts.append(f"### {experiment_id}: {report.title}\n")
        parts.append("```")
        parts.extend(report.lines)
        parts.append("```")
        parts.append("")

    parts.append(_DEVIATIONS)
    text = "\n".join(parts)
    Path(out_path).write_text(text)
    return text
