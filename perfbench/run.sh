#!/usr/bin/env bash
# Builds the benchmark driver and the gup-serve binary from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the driver writes its generated data graphs there too.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin gup-serve >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
