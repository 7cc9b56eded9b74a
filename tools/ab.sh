#!/usr/bin/env bash
# Alternating A/B pairs of one ledger workload, a base revision against
# the working tree:
#
#   tools/ab.sh <base-rev> --workload W [--pairs N] [--seed S] [--seconds SEC]
#   tools/ab.sh --aa [<rev>] --workload W [...]   # <rev> (default HEAD) against itself
#
# Builds the ledger for <base-rev> from a `git archive` export under
# target/ab/ (with its own target directory; the export is removed on
# exit), as tools/identity.sh does, and for the working tree as
# benchmark/run.sh does. With --aa both sides are exports of <rev>,
# each built in its own target directory, so the verdicts show what the
# host and the build alone make of one program. Then runs N pairs
# (default 10), one process per run, untraced, at seed S (default 1;
# pick one the change was not tuned on) for SEC seconds (default 15,
# BENCHMARK.json's run_seconds); the side that runs first alternates
# from pair to pair. For each end-to-end metric of BENCHMARK.json it
# prints each side's median and inclusive quartiles, the pairs the
# change won, the median per-pair ratio (change / base), the
# Hodges-Lehmann estimate of that ratio with its 95 % interval, and a
# verdict:
#
#   regression  the change's median is worse than the base's by more
#               than the metric's BENCHMARK.json bound
#   unresolved  the base's own quartile spread, relative to its median,
#               is wider than that bound: these runs cannot tell
#   gain        the change won at least 9 of every 10 pairs and its
#               median is better than the base's by more than the
#               base's quartile spread
#   neutral     none of these
#
# then the digests each side printed. The Hodges-Lehmann estimate is
# exp of the median of the Walsh averages (d_i + d_j) / 2, i <= j, of
# the per-pair log ratios d; its interval runs between the Walsh
# averages at the exact Wilcoxon signed-rank critical value (a DP over
# the ranks), distribution-free, and needs at least 6 pairs. It only
# informs: the verdict rule above does not read it. Every run's verdict
# and digest, and each metric's estimate and interval, land in
# target/ab/<W>-seed<S>.json. Exits 1 when any
# run is not `"correct": true` or any metric reads `regression`. The
# build rewrites benchmark/Cargo.lock; it is put back as found.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage() {
    sed -n '2,42p' "$0" >&2
    exit 2
}
[ "$#" -ge 1 ] || usage
aa=0 rev=HEAD
if [ "$1" = --aa ]; then
    aa=1
    shift
    [ "$#" -eq 0 ] || [ "${1#--}" != "$1" ] || { rev=$1; shift; }
else
    rev=$1
    shift
fi
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
lock=$new/benchmark/Cargo.lock
mkdir -p "$base"
cp "$lock" "$base/Cargo.lock.saved"
trap 'cp "$base/Cargo.lock.saved" "$lock"; rm -rf "$base/tree" "$base/tree-aa"' EXIT
unset RAYON_NUM_THREADS

# export_rev TREE: a fresh copy of $rev's committed files at $base/TREE.
export_rev() {
    rm -rf "${base:?}/$1"
    mkdir -p "$base/$1"
    git archive "$rev" | tar -x -C "$base/$1"
}

# build_ledger TREE TARGET: the ledger of TREE, built into TARGET.
build_ledger() {
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$2"
}

echo "building the ledger at $rev" >&2
export_rev tree
build_ledger "$base/tree" "$base/target"
declare -A bin=([base]=$base/target/release/ledger)
declare -A dir=([base]=$base/tree)
if [ "$aa" -eq 1 ]; then
    echo "building the ledger at $rev again, in its own target directory" >&2
    export_rev tree-aa
    build_ledger "$base/tree-aa" "$base/target-aa"
    bin[change]=$base/target-aa/release/ledger
    dir[change]=$base/tree-aa
else
    echo "building the ledger in the working tree" >&2
    target=${CARGO_TARGET_DIR:-$new/benchmark/target}
    build_ledger "$new" "$target"
    bin[change]=$target/release/ledger
    dir[change]=$new
fi
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

label=$rev
[ "$aa" -eq 0 ] || label="$rev (A/A)"
python3 - "$runs" "$base/$workload-seed$seed.json" "$label" "$workload" "$seed" "$seconds" <<'EOF'
import json, math, statistics, sys

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

def wilcoxon_lower(n, alpha=0.05):
    """The largest c with P(T+ <= c) <= alpha / 2 under the null, T+ the
    signed-rank sum of n pairs, and P(T+ <= c); None when no c has it."""
    counts = [1] + [0] * (n * (n + 1) // 2)
    for r in range(1, n + 1):
        for t in range(len(counts) - 1, r - 1, -1):
            counts[t] += counts[t - r]
    c, below = None, 0
    for t, k in enumerate(counts):
        if (below + k) / 2 ** n > alpha / 2:
            break
        below += k
        c = t
    return c, below / 2 ** n

def hodges_lehmann(base, change):
    """The Hodges-Lehmann change/base ratio and its 95 % interval."""
    if any(b <= 0 or c <= 0 for b, c in zip(base, change)):
        return None
    d = [math.log(c / b) for b, c in zip(base, change)]
    walsh = sorted((d[i] + d[j]) / 2 for i in range(len(d)) for j in range(i, len(d)))
    hl = {"estimate": math.exp(statistics.median(walsh)), "ci95": None, "coverage": None}
    c, tail = wilcoxon_lower(len(d))
    if c is not None:
        # The (c+1)-th smallest and (c+1)-th largest Walsh averages.
        hl["ci95"] = [math.exp(walsh[c]), math.exp(walsh[len(walsh) - 1 - c])]
        hl["coverage"] = 1 - 2 * tail
    return hl

def verdict(row, bound, higher):
    base, change = row["base"]["median"], row["change"]["median"]
    q1, q3 = row["base"]["q1_q3"]
    better = (change - base) if higher else (base - change)
    if base and -better / abs(base) > bound:
        return "regression"
    if base and (q3 - q1) / abs(base) > bound:
        return "unresolved"
    if row["change_wins"] >= math.ceil(0.9 * len(pairs)) and better > q3 - q1:
        return "gain"
    return "neutral"

record = {"base": rev, "workload": workload, "seed": int(seed), "seconds": float(seconds),
          "pairs": len(pairs), "metrics": {}, "runs": runs}
print(f"{workload}, seed {seed}, {seconds} s, {len(pairs)} pairs: {rev} (base) against the change")
print(f"{'metric':<12} {'base median [q1, q3]':>38} {'change median [q1, q3]':>38} {'wins':>6} {'ratio':>7} "
      f"{'HL ratio [95 % interval]':>28}  verdict")
verdicts = []
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    values = {s: [side[p, s]["metrics"][name]["value"] for p in pairs] for s in ("base", "change")}
    ratios = [c / b if b else float("nan") for b, c in zip(values["base"], values["change"])]
    wins = sum((c > b) if higher else (c < b) for b, c in zip(values["base"], values["change"]))
    row = {s: {"median": statistics.median(v), "q1_q3": quartiles(v), "runs": v} for s, v in values.items()}
    row.update(change_wins=wins, median_ratio=statistics.median(ratios), better=m["better"],
               bound=m["bound"], hodges_lehmann=hodges_lehmann(values["base"], values["change"]))
    row["verdict"] = verdict(row, m["bound"], higher)
    verdicts.append(row["verdict"])
    record["metrics"][name] = row
    cell = lambda s: "%.6g [%.6g, %.6g]" % (row[s]["median"], *row[s]["q1_q3"])
    hl = row["hodges_lehmann"]
    if hl is None:
        hl_cell = "n/a"
    elif hl["ci95"] is None:
        hl_cell = "%.4f [< 6 pairs]" % hl["estimate"]
    else:
        hl_cell = "%.4f [%.4f, %.4f]" % (hl["estimate"], *hl["ci95"])
    print(f"{name:<12} {cell('base'):>38} {cell('change'):>38} {wins:>3}/{len(pairs):<2} "
          f"{row['median_ratio']:>7.4f} {hl_cell:>28}  {row['verdict']}")
digests = {s: sorted({r["digest"] for r in runs if r["side"] == s}) for s in ("base", "change")}
record["digests"] = digests
print(f"digests: base {', '.join(digests['base']) or 'none'}; change {', '.join(digests['change']) or 'none'}")
correct = {s: sum(side[p, s]["correct"] is True for p in pairs) for s in ("base", "change")}
record["correct"] = correct
print(f"correct: base {correct['base']}/{len(pairs)}, change {correct['change']}/{len(pairs)}")
json.dump(record, open(out_path, "w"), indent=1)
print(f"every run: {out_path}")
sys.exit(0 if min(correct.values()) == len(pairs) and "regression" not in verdicts else 1)
EOF
