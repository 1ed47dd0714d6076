"""The paper-scale suite in ``benchmarks/`` still imports and plans.

Running it takes minutes at the default scale, so it has its own CI job.
``--setup-plan`` runs no fixture: it only proves that every bench module
imports (a ``src/`` rename has not broken one) and that every fixture a
bench asks for exists.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent
N_BENCHES = 28


def test_benchmarks_suite_plans_every_bench():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--setup-plan",
         "-p", "no:benchmark", "-q"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    planned = [
        line for line in done.stdout.splitlines()
        if line.strip().startswith("benchmarks/") and "::test_" in line
    ]
    assert len(planned) == N_BENCHES, done.stdout[-4000:]
