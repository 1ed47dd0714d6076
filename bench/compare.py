"""Compare two sets of benchmark runs, pair by pair.

    python3 bench/compare.py A.json [A.json ...] -- B.json [B.json ...]

Each file is a record list written by ``bench/run.py``.  For every
(workload, metric) pair the tool prints both sides' median and quartiles.
Each ``end_to_end`` metric is judged against its bound in BENCHMARK.json:

* ``within bound``: B's median is worse than A's by at most the bound;
* ``regressed``: B's median is worse by more than the bound;
* ``unresolved``: a side's spread (quartile distance over median) is wider
  than the bound, unless every B run is better than every A run.

``per_layer`` metrics have no bound and are printed for reference.  The
exit status is 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run, from record-list files."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        for record in json.loads(Path(path).read_text()):
            for name, metric in record["metrics"].items():
                values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """B's relative change in the 'worse' direction, and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    a_median, b_median = quartiles(a)[1], quartiles(b)[1]
    worse = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
    if max(spread(a), spread(b)) > bound:
        b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
        return worse, "within bound" if b_always_better else "unresolved"
    return worse, "regressed" if worse > bound else "within bound"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    """Report lines and the number of regressed pairs."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    lines = [
        f"{'workload':<18} {'metric':<30} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict"
    ]
    regressed = 0
    for workload in workloads:
        for name in order:
            key = (workload, name)
            if key not in a or key not in b:
                continue
            qa, qb = quartiles(a[key]), quartiles(b[key])
            side_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            side_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            if name in bounds:
                worse, result = verdict(a[key], b[key], bounds[name]["better"], bounds[name]["bound"])
                regressed += result == "regressed"
                tail = f"{worse:>+8.1%} {bounds[name]['bound']:>6.0%}  {result}"
            else:
                tail = f"{'':>8} {'':>6}  -"
            lines.append(f"{workload:<18} {name:<30} {side_a:>34} {side_b:>34} {tail}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else 0
    side_a, side_b = argv[:split], argv[split + 1 :]
    if not side_a or not side_b:
        print("usage: python3 bench/compare.py A.json [...] -- B.json [...]", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(load(side_a), load(side_b), spec)
    print("\n".join(lines))
    print(f"{regressed} regressed pair(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
