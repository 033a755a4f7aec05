#!/usr/bin/env bash
# Build the ramiel binary and the benchmark from source, then run the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed N --seconds S --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark's working files go under it too.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ramiel --bin ramiel >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
  --ramiel "$CARGO_TARGET_DIR/release/ramiel" \
  --work-dir "$CARGO_TARGET_DIR/perfbench-work"
