#!/usr/bin/env bash
# Seeded-output parity of the working tree against a base commit.
#
#   bash .github/parity.sh BASE_REV
#
# Extracts `git archive BASE_REV` into a temporary directory and runs the
# small-scale seeded commands of the verify flow in that tree and in the
# working tree: `report` at --n-jobs 1 and 2, `train --out`, `findings`
# (its table and exit status), the study digest at n_jobs 1 and 2, and the
# stdout of examples/store_deployment.py and examples/privacy_ondevice.py.
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
        python - > "$2/study-digest.txt" <<'EOF'
from repro.benchmark import study_digest
from repro.simulation import SimulationConfig, run_study

for n_jobs in (1, 2):
    print(n_jobs, study_digest(run_study(SimulationConfig.small(), n_jobs=n_jobs)))
EOF
        python examples/store_deployment.py > "$2/store_deployment.txt"
        python examples/privacy_ondevice.py > "$2/privacy_ondevice.txt"
    )
}

outputs "$work/base" "$work/out-base"
outputs "$head_tree" "$work/out-head"

different=0
printf '%-22s %-64s %-64s\n' output "base ($base_rev)" head
for path in "$work/out-base"/*; do
    name=$(basename "$path")
    base_sum=$(sha256sum < "$path" | cut -d' ' -f1)
    head_sum=$(sha256sum < "$work/out-head/$name" | cut -d' ' -f1)
    mark=""
    if [ "$base_sum" != "$head_sum" ]; then
        mark="  DIFFERS"
        different=1
    fi
    printf '%-22s %s %s%s\n' "$name" "$base_sum" "$head_sum" "$mark"
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
