#!/usr/bin/env bash
# Builds the `serve` daemon and the benchmark harness from source, then runs
# one workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload <campaign-deep|campaign-wide|serve-mixed> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the run's
# scratch files and traces go below it. The last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet -p soma-bench --bin serve >&2
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/soma-benchmark" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --out-dir "$CARGO_TARGET_DIR/bench" "$@"
