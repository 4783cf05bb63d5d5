#!/usr/bin/env bash
# Build the benchmark, run every workload once, then check that two sets of
# runs of this same build agree within the benchmark's own bounds.
# Usage: benchmark/run.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."
run=(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml --)
cargo build --release --offline --manifest-path benchmark/Cargo.toml
"${run[@]}" all "$@"
"${run[@]}" selfcheck "$@"
