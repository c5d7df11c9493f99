#!/usr/bin/env bash
# Perf-regression gate: diff a fresh harness run against a committed
# baseline under the bounds its cells carry (see crates/bench/src/gate.rs).
# Exit 0 = pass, 1 = regression, 2 = the gate cannot judge (bad document,
# cross-host pair, a fresh cell restating its bound).
#
# Usage:
#   scripts/bench_gate.sh BENCH_query.json
#       full run: rerun the harness experiment the baseline names (its
#       "experiment" prefix, e.g. e9), then diff
#   BENCH_GATE_FRESH=path scripts/bench_gate.sh BENCH_query.json
#       diff an existing results file (CI uses this to avoid the
#       multi-minute full-scale runs)
set -euo pipefail
BASE="${1:?usage: scripts/bench_gate.sh <baseline BENCH_*.json>}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"

FRESH="${BENCH_GATE_FRESH:-}"
if [ -z "$FRESH" ]; then
    EXPERIMENT="$(sed -n 's/^  "experiment": "\(e[0-9]*\)_.*/\1/p' "$BASE")"
    if [ -z "$EXPERIMENT" ]; then
        echo "bench_gate.sh: $BASE names no harness experiment" >&2
        exit 2
    fi
    # Run the harness in a scratch cwd so its BENCH_*.json artifacts don't
    # clobber the committed baselines.
    SCRATCH="$(mktemp -d)"
    trap 'rm -rf "$SCRATCH"' EXIT
    echo "bench_gate.sh: running fresh $EXPERIMENT harness (this may take a few minutes)..."
    (cd "$SCRATCH" && cargo run --release --quiet \
        --manifest-path "$REPO/Cargo.toml" -p lidardb-bench --bin harness -- "$EXPERIMENT")
    FRESH="$SCRATCH/$(basename "$BASE")"
fi

cargo run --release --quiet --manifest-path "$REPO/Cargo.toml" \
    -p lidardb-bench --bin bench_gate -- --base "$BASE" --fresh "$FRESH"
