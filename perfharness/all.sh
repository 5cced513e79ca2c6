#!/usr/bin/env bash
# Runs every workload untraced (end-to-end metrics) and traced (per-layer
# metrics), printing each metric by name and unit on stderr and each
# run's result line on stdout. Exits non-zero if any run fails a check.
#
#   bash perfharness/all.sh            # seed 1, 40 s per run
#   SEED=7 RUN_SECONDS=5 bash perfharness/all.sh
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${SEED:-1}"
seconds="${RUN_SECONDS:-40}"
status=0
for workload in suite-cold trace-import check-sweep; do
    for trace in 0 1; do
        echo "== $workload trace=$trace" >&2
        line=$(cargo run --release --offline --quiet --manifest-path perfharness/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
        echo "$line"
        case "$line" in
            '{"correct": true'*) ;;
            *) status=1 ;;
        esac
    done
done
exit "$status"
