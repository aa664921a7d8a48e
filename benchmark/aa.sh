#!/usr/bin/env bash
# A/A self-check: build once, run the whole benchmark twice, compare the two
# sides with the acceptance rules (see README.md). Prints the table, keeps a
# copy under results/aa_<date>.txt, and rewrites results/BENCH_e2e.json (the
# committed baseline) from the first side.
#
#   benchmark/aa.sh [--runs 10] [--traced-runs 3] [--seed N]
#
# Ten 20-second runs per (side, workload) plus the traced runs take about 50
# minutes.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
out="$here/results/aa_$(date +%Y-%m-%d).txt"
cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin aa -- \
    --out "$here/results/BENCH_e2e.json" "$@" | tee "$out"
