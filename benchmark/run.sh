#!/usr/bin/env bash
# Builds the ledger in release mode (the root workspace's profile) and
# runs it. Every argument is passed through:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--aa]
#   benchmark/run.sh --manifest
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The product's rayon shim honours this variable; the benchmark's thread
# count comes from the host alone.
unset RAYON_NUM_THREADS
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/ledger" --bench-dir "$here" \
    --rustc "$(rustc --version)" --commit "$commit" "$@"
