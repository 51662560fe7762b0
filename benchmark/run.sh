#!/usr/bin/env bash
# Builds the release `unicon` binary and the benchmark harness, then runs
# the harness from the repository root.
#
#   benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--results <file>]
#   benchmark/run.sh --seed <n> [...]        every workload in turn
#   benchmark/run.sh compare <a.jsonl> <b.jsonl>
#
# Builds go to $CARGO_TARGET_DIR, or ./target when it is unset.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" --bin unicon
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path benchmark/Cargo.toml
exec "$target/release/unicon-benchmark" "$@"
