"""Every workload completes traced, and the command line keeps its output format."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import run
from bench.trace import TARGETS
from bench.workloads import WORKLOADS, measure
from repro.simulation.config import SimulationConfig

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = run.load_spec()

#: The chaos smoke shape.  Its studies are too small to label apps, so
#: only the workload that builds no app dataset runs on it.
TINY = SimulationConfig.small().scaled(
    n_worker_devices=12,
    n_regular_devices=8,
    n_dropout_devices=2,
    study_days=4,
    n_popular_apps=300,
    n_promoted_apps=24,
    n_third_party_apps=6,
    n_antivirus_apps=4,
)


@pytest.fixture(scope="module")
def traced_results():
    """One traced pair of iterations per workload."""
    return {
        name: measure(
            name,
            seed=0,
            seconds=0.0,
            launched=time.monotonic(),
            trace=True,
            base=TINY if name == "ingest-mayhem-j2" else None,
        )
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_completes_with_correct_outputs(traced_results, name):
    result = traced_results[name]
    assert result["attempted"] > 0
    assert result["failures"] == []
    assert [it["traced"] for it in result["iterations"]] == [False, True]
    # Both iterations of a pair see the same input, so the traced output
    # was compared with an untraced one.
    assert len({it["variant"] for it in result["iterations"]}) == 1
    assert set(result["layers"]) == {m["name"] for m in SPEC["per_layer"]}


def test_every_wrap_target_is_hit_by_some_workload(traced_results):
    labels = {label for _, _, label in TARGETS}
    hit = set.union(*(labels - set(r["unhit"]) for r in traced_results.values()))
    assert hit == labels, f"never hit: {sorted(labels - hit)}"


def test_command_line_prints_the_result_line(tmp_path):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-small", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    record = json.loads(out.read_text())[0]
    assert record["workload"] == "simulate-small" and len(record["setup_runs"]) == run.SETUP_RUNS


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
