#!/usr/bin/env bash
# Seeded-output parity of the working tree against a base commit.
#
#   bash .github/parity.sh BASE_REV
#
# Extracts `git archive BASE_REV` into a temporary directory and runs the
# small-scale seeded commands of the verify flow in that tree and in the
# working tree: `report` at --n-jobs 1 and 2, `train --out`, `findings`
# (its table and exit status), the study digests of the benchmark's three
# small worlds (seeds DEFAULT_SEED, +1 and +2) at n_jobs 1 and 2 and under
# the `mayhem` fault plan at n_jobs 2 (the `simulate-small` and
# `ingest-mayhem-j2` runs), the
# stdout of examples/store_deployment.py, examples/privacy_ondevice.py and
# examples/baseline_comparison.py, and the eight run lines and the verdict
# of `--n-jobs 2 chaos --smoke` (each plan's digest, records, duplicates,
# rollbacks, retransmissions, redeliveries and fault counts; the
# `wrote <path>` line names a per-tree path and is left out).
# It also runs the default-scale `write-experiments` at --n-jobs 2, whose
# EXPERIMENTS.md holds every default-scale table and figure (about a
# minute per tree on two cores).
# Prints each output's sha256 for both trees side by side and exits 1 when
# any output differs.  Both trees run on one machine, so a numpy whose SIMD
# exp/log round differently on another host cannot raise a false alarm.
set -euo pipefail

base_rev=$1
head_tree=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base_rev" | tar -x -C "$work/base"

outputs() {  # outputs TREE OUT_DIR
    mkdir -p "$2"
    (
        cd "$1"
        export PYTHONPATH=src
        python -m repro --scale small report > "$2/report-n1.txt"
        python -m repro --scale small --n-jobs 2 report > "$2/report-n2.txt"
        python -m repro --scale small train --out "$2/train.json" > /dev/null
        status=0
        python -m repro --scale small findings > "$2/findings.txt" || status=$?
        echo "exit status $status" >> "$2/findings.txt"
        python - "$2" <<'EOF'
import sys

from repro.benchmark import study_digest
from repro.faults.chaos import escalating_plans
from repro.simulation import SimulationConfig, run_study
from repro.simulation.config import DEFAULT_SEED

out = sys.argv[1]
mayhem = dict(escalating_plans())["mayhem"]
configs = [SimulationConfig.small().scaled(seed=DEFAULT_SEED + k) for k in range(3)]
with open(f"{out}/study-digest.txt", "w") as digests:
    for config in configs:
        for n_jobs in (1, 2):
            digest = study_digest(run_study(config, n_jobs=n_jobs))
            print(config.seed, n_jobs, digest, file=digests)
with open(f"{out}/mayhem-digest.txt", "w") as digests:
    for config in configs:
        digest = study_digest(run_study(config.scaled(fault_plan=mayhem), n_jobs=2))
        print(config.seed, 2, digest, file=digests)
EOF
        python examples/store_deployment.py > "$2/store_deployment.txt"
        python examples/privacy_ondevice.py > "$2/privacy_ondevice.txt"
        python examples/baseline_comparison.py > "$2/baseline_comparison.txt"
        python -m repro --n-jobs 2 chaos --smoke --out "$2/chaos.json" \
            | grep -v '^wrote ' > "$2/chaos.txt"
        rm "$2/chaos.json"
        python -m repro --scale default --n-jobs 2 write-experiments \
            --out "$2/EXPERIMENTS.md" > /dev/null
    )
}

outputs "$work/base" "$work/out-base"
outputs "$head_tree" "$work/out-head"

different=0
printf '%-24s %-64s %-64s\n' output "base ($base_rev)" head
for path in "$work/out-base"/*; do
    name=$(basename "$path")
    base_sum=$(sha256sum < "$path" | cut -d' ' -f1)
    head_sum=$(sha256sum < "$work/out-head/$name" | cut -d' ' -f1)
    mark=""
    if [ "$base_sum" != "$head_sum" ]; then
        mark="  DIFFERS"
        different=1
    fi
    printf '%-24s %s %s%s\n' "$name" "$base_sum" "$head_sum" "$mark"
done
if [ "$different" -ne 0 ]; then
    for path in "$work/out-base"/*; do
        name=$(basename "$path")
        if ! cmp -s "$path" "$work/out-head/$name"; then
            echo "--- $name: first differing lines (base <, head >)"
            diff "$path" "$work/out-head/$name" | head -n 20 || true
        fi
    done
    exit 1
fi
echo "every seeded output is byte-identical to the base"
