#!/usr/bin/env bash
# Alternating A/B pairs of one ledger workload, a base revision against
# the working tree:
#
#   tools/ab.sh <base-rev> --workload W [--pairs N] [--seed S] [--seconds SEC]
#
# Builds the ledger for <base-rev> in a git worktree under target/ab/
# (with its own target directory; the worktree is removed on exit), as
# tools/identity.sh does, and for the working tree as benchmark/run.sh
# does. Then runs N pairs (default 10), one process per run, untraced,
# at seed S (default 1; pick one the change was not tuned on) for SEC
# seconds (default 15, BENCHMARK.json's run_seconds); the side that runs
# first alternates from pair to pair. For each end-to-end metric of
# BENCHMARK.json it prints each side's median and inclusive quartiles,
# the pairs the working tree won and the median per-pair ratio (working
# tree / base), then the digests each side printed. Every run's verdict
# and digest land in target/ab/<W>-seed<S>.json. No interval yet:
# compare the gain with the base's quartiles. Exits 1 when any run is
# not `"correct": true`. The build rewrites benchmark/Cargo.lock; it is
# put back as found.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage() {
    sed -n '2,20p' "$0" >&2
    exit 2
}
[ "$#" -ge 1 ] || usage
rev=$1
shift
workload='' pairs=10 seed=1 seconds=15
while [ "$#" -gt 0 ]; do
    case "$1" in
    --workload) workload=${2:?}; shift 2 ;;
    --pairs) pairs=${2:?}; shift 2 ;;
    --seed) seed=${2:?}; shift 2 ;;
    --seconds) seconds=${2:?}; shift 2 ;;
    *) usage ;;
    esac
done
[ -n "$workload" ] || usage

new=$PWD
base=$new/target/ab
old=$base/tree
lock=$new/benchmark/Cargo.lock
mkdir -p "$base"
cp "$lock" "$base/Cargo.lock.saved"
git worktree remove --force "$old" 2>/dev/null || true
git worktree prune
git worktree add --detach --quiet "$old" "$rev"
trap 'cp "$base/Cargo.lock.saved" "$lock"; git worktree remove --force "$old"' EXIT
unset RAYON_NUM_THREADS

echo "building the ledger at $rev" >&2
cargo build --release --offline --quiet --manifest-path "$old/benchmark/Cargo.toml" \
    --target-dir "$base/target"
echo "building the ledger in the working tree" >&2
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$new/benchmark/target}"
cargo build --release --offline --quiet --manifest-path "$new/benchmark/Cargo.toml"
declare -A bin=([base]=$base/target/release/ledger [change]=$CARGO_TARGET_DIR/release/ledger)
declare -A dir=([base]=$old [change]=$new)
rustc=$(rustc --version)

runs=$base/$workload-seed$seed.runs
: > "$runs"
for ((i = 0; i < pairs; i++)); do
    order="base change"
    [ $((i % 2)) -eq 0 ] || order="change base"
    for side in $order; do
        out=$("${bin[$side]}" --bench-dir "${dir[$side]}/benchmark" --rustc "$rustc" \
            --commit "$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
        digest=$(sed -n 's/^ *digest *\([0-9a-f]*\).*/\1/p' <<< "$out")
        echo "{\"pair\": $i, \"side\": \"$side\", \"digest\": \"$digest\"," \
            "\"verdict\": $(tail -n 1 <<< "$out")}" >> "$runs"
        echo "pair $((i + 1))/$pairs $side done" >&2
    done
done

python3 - "$runs" "$base/$workload-seed$seed.json" "$rev" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

runs_path, out_path, rev, workload, seed, seconds = sys.argv[1:]
runs = [json.loads(line) for line in open(runs_path)]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
pairs = sorted({r["pair"] for r in runs})
side = {(r["pair"], r["side"]): r["verdict"] for r in runs}

def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]

record = {"base": rev, "workload": workload, "seed": int(seed), "seconds": float(seconds),
          "pairs": len(pairs), "metrics": {}, "runs": runs}
print(f"{workload}, seed {seed}, {seconds} s, {len(pairs)} pairs: {rev} (base) against the working tree")
print(f"{'metric':<12} {'base median [q1, q3]':>38} {'change median [q1, q3]':>38} {'wins':>6} {'ratio':>7}")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    values = {s: [side[p, s]["metrics"][name]["value"] for p in pairs] for s in ("base", "change")}
    ratios = [c / b if b else float("nan") for b, c in zip(values["base"], values["change"])]
    wins = sum((c > b) if higher else (c < b) for b, c in zip(values["base"], values["change"]))
    row = {s: {"median": statistics.median(v), "q1_q3": quartiles(v), "runs": v} for s, v in values.items()}
    row.update(change_wins=wins, median_ratio=statistics.median(ratios), better=m["better"])
    record["metrics"][name] = row
    cell = lambda s: "%.6g [%.6g, %.6g]" % (row[s]["median"], *row[s]["q1_q3"])
    print(f"{name:<12} {cell('base'):>38} {cell('change'):>38} {wins:>3}/{len(pairs):<2} {row['median_ratio']:>7.4f}")
digests = {s: sorted({r["digest"] for r in runs if r["side"] == s}) for s in ("base", "change")}
record["digests"] = digests
print(f"digests: base {', '.join(digests['base']) or 'none'}; change {', '.join(digests['change']) or 'none'}")
correct = {s: sum(side[p, s]["correct"] is True for p in pairs) for s in ("base", "change")}
record["correct"] = correct
print(f"correct: base {correct['base']}/{len(pairs)}, change {correct['change']}/{len(pairs)}")
json.dump(record, open(out_path, "w"), indent=1)
print(f"every run: {out_path}")
sys.exit(0 if min(correct.values()) == len(pairs) else 1)
EOF
