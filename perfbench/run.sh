#!/usr/bin/env bash
# Builds the benchmark and the onion-dtn daemon from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload dense_fig04 --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --bin onion-dtn >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --daemon "$CARGO_TARGET_DIR/release/onion-dtn" \
    --workdir "$CARGO_TARGET_DIR/perfbench-work" "$@"
