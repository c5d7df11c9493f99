#!/usr/bin/env bash
# The full local CI gate: release build, workspace tests, strict lints,
# reduced-scale harness smokes and the bench gates.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$PWD"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (default test threads)"
cargo test -q --workspace

echo "==> cargo test -q --workspace -- --test-threads=1"
cargo test -q --workspace -- --test-threads=1

echo "==> worker-count differential suite vs brute-force oracle at 2 and 8 workers (incl. Cancel/Stall faults)"
LIDARDB_WORKERS=2 cargo test -q -p lidardb-core --test differential -- --test-threads=1
LIDARDB_WORKERS=8 cargo test -q -p lidardb-core --test differential -- --test-threads=1

# Debug atomics can hide lost-update bugs behind slow interleavings; run
# the concurrency-exactness suites under release codegen too.
echo "==> release codegen: governance, metrics, trace, WAL torture, recorder, exposition"
cargo test -q --release -p lidardb-core --test governance -- --test-threads=1
cargo test -q --release -p lidardb-core --test metrics_smoke -- --test-threads=1
cargo test -q --release -p lidardb-core --test trace_smoke -- --test-threads=1
cargo test -q --release -p lidardb-core --test recovery_torture -- --test-threads=1
cargo test -q --release -p lidardb-core recorder
cargo test -q --release -p lidardb-server --test exposition -- --test-threads=1

echo "==> core builds with tracing compiled out"
cargo check -q -p lidardb-core --no-default-features

harness_smoke() { # <experiment> [ENV=value ...]: reduced-scale run in a scratch dir
    local exp="$1" scratch
    shift
    scratch="$(mktemp -d)"
    (cd "$scratch" && env "$@" cargo run --release --quiet \
        --manifest-path "$REPO/Cargo.toml" -p lidardb-bench --bin harness -- "$exp")
    rm -rf "$scratch"
}

echo "==> E13 out-of-core smoke (reduced scale; asserts row parity + residency budget)"
harness_smoke e13 LIDARDB_E13_POINTS=500000
echo "==> E11 server smoke (reduced scale; asserts typed outcomes + flat-memory streaming)"
harness_smoke e11 LIDARDB_E11_POINTS=200000 LIDARDB_E11_CLIENTS=16
echo "==> E14 observability smoke (reduced scale; asserts shed-free burst + live scrapes)"
harness_smoke e14 LIDARDB_E14_POINTS=200000 LIDARDB_E14_CLIENTS=16
echo "==> E15 chaos smoke (reduced scale; asserts exactly-once through proxy + drains + disk-full)"
harness_smoke e15 LIDARDB_E15_CLIENTS=2 LIDARDB_E15_BATCHES=12 LIDARDB_E15_CYCLES=3
echo "==> E12 ingest smoke (reduced scale; asserts snapshot isolation + recovery)"
harness_smoke e12 LIDARDB_E12_POINTS=30000

# Every gated baseline must pass against itself, and its 2x-degraded copy
# must fail as a regression (exit 1), not as a broken gate (exit 2).
DEGRADED="$(mktemp)"
trap 'rm -f "$DEGRADED"' EXIT
for base in BENCH_query.json BENCH_tiles.json BENCH_server.json BENCH_obs.json \
    BENCH_chaos.json BENCH_ingest.json; do
    echo "==> bench gate $base (identity must pass, 2x degradation must fail)"
    BENCH_GATE_FRESH="$base" scripts/bench_gate.sh "$base"
    cargo run --release --quiet -p lidardb-bench --bin bench_gate -- \
        --base "$base" --scale 2.0 --out "$DEGRADED"
    status=0
    BENCH_GATE_FRESH="$DEGRADED" scripts/bench_gate.sh "$base" || status=$?
    if [ "$status" -ne 1 ]; then
        echo "ci FAIL: the $base gate returned $status on a 2x degradation, expected 1" >&2
        exit 1
    fi
    echo "gate correctly rejected the degraded copy of $base"
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci OK"
