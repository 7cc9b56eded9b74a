#!/usr/bin/env bash
# Profiles one ledger workload where there is no perf, valgrind or gdb:
#
#   tools/profile.sh <workload> [seconds] [rows]
#
# 40 seconds unless told otherwise (the timer ticks at 10 ms, so fewer
# give too few samples) and the top 10 rows of each table.
#
# Builds the ledger (release, debug info) and the preload sampler of
# tools/prof/, runs the workload untraced at seed 0 and prints the top
# functions, inlined frames and source lines. Outputs land in
# target/prof/. Not part of CI: it picks the next optimisation target.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="${1:?usage: tools/profile.sh <workload> [seconds] [rows]}"
seconds="${2:-40}"
out="$root/target/prof"
mkdir -p "$out"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/benchmark/target}"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
cc -O2 -shared -fPIC -o "$out/prof.so" "$root/tools/prof/prof.c"

# The ledger itself is preloaded, not benchmark/run.sh: every process that
# inherits LD_PRELOAD would overwrite the profile.
unset RAYON_NUM_THREADS
ALC_PROF_OUT="$out/$workload.prof" LD_PRELOAD="$out/prof.so" \
    "$CARGO_TARGET_DIR/release/ledger" --bench-dir "$root/benchmark" \
    --rustc "$(rustc --version)" --commit profile \
    --workload "$workload" --seed 0 --seconds "$seconds" --trace 0 | tail -n 1
python3 "$root/tools/prof/sym.py" "$out/$workload.prof" "${3:-10}" | tee "$out/$workload.txt"
