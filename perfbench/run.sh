#!/usr/bin/env bash
# Builds the daemon (`mindbp`) and the benchmark from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload interactive|bulk-10k|durable \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), run
# output (traces, ledgers, scratch journals) to .bench_out. Build logs go
# to stderr; the last stdout line is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mindbp-cli --bin mindbp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/mindbp" "$@"
