#!/usr/bin/env bash
# Output identity against another revision. Builds <rev> from a `git
# archive` export under target/identity/ (with its own target directory), then
# runs the same `scenario` commands in both trees, each from its tree's
# root and with relative output directories, and compares what they
# write:
#
#   figure   figure all at paper scale: the tables, notes and trajectories
#   trace    trace --quick over every spec: the Chrome traces
#   validate validate over every spec: its stdout
#   replay-* the four checked-in gate-log replays: their stdout
#
# and every command's exit status. The other commands' stdout is not
# compared: it names output paths, and `trace` prints its identity
# labels. One verdict line per check; exits 1 on the first file that
# differs, naming it. benchmark/run.sh is not called (it rewrites
# benchmark/Cargo.lock); CI's ledger step pins the engine digest. Nor is
# `run --quick --gate-log`: `git diff <rev> -- crates/scenario/tests/golden/`
# compares its outputs exactly (the goldens and OUTPUTS pin every file).
#
#   tools/identity.sh HEAD~1     # the working tree against its parent
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ "$#" -ne 1 ]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
rev=$1
new=$PWD
base=$new/target/identity
old=$base/tree
out=target/identity-out

rm -rf "$old"
mkdir -p "$old"
git archive "$rev" | tar -x -C "$old"
trap 'rm -rf "$old"' EXIT
echo "building $rev in $old"
cargo build --release -q -p alc-scenario --manifest-path "$old/Cargo.toml" --target-dir "$base/target"
echo "building the working tree"
cargo build --release -q -p alc-scenario
declare -A bin=([$old]=$base/target/release/scenario [$new]=$new/target/release/scenario)

# check NAME COMMAND: runs COMMAND (a shell line; `$S` is the tree's
# binary, `$O` its output directory for NAME) from each tree's root.
check() {
    local name=$1 cmd=$2 root status
    for root in "$old" "$new"; do
        rm -rf "${root:?}/$out/$name"
        mkdir -p "$root/$out/$name"
        status=0
        (cd "$root" && S=${bin[$root]} O=$out/$name bash -c "$cmd") \
            > "$root/$out/$name.stdout" 2> "$root/$out/$name.stderr" || status=$?
        echo "$status" > "$root/$out/$name.status"
    done
}

differs() {
    echo "DIFFERS  $1: $2"
    exit 1
}

# same NAME [stdout]: the verdict on NAME's written files (and stdout).
same() {
    local name=$1 a=$old/$out/$1 b=$new/$out/$1 first n
    cmp -s "$a.status" "$b.status" ||
        differs "$name" "exit status $(cat "$a.status") at $rev, $(cat "$b.status") here"
    first=$(diff -rq "$a" "$b" | head -n 1) || true
    [ -z "$first" ] || differs "$name" "$first"
    n=$(find "$b" -type f | wc -l)
    if [ "${2:-}" = stdout ]; then
        cmp -s "$a.stdout" "$b.stdout" || differs "$name" "stdout ($a.stdout, $b.stdout)"
        echo "identical  $name: stdout, exit $(cat "$b.status")"
    else
        [ "$n" -gt 0 ] || differs "$name" "no files written (see $b.stderr)"
        echo "identical  $name: $n files, exit $(cat "$b.status")"
    fi
}

check figure '"$S" figure --out "$O" all'
same figure
check trace '"$S" trace --quick --out "$O" scenarios/*.json'
same trace
check validate '"$S" validate scenarios/*.json'
same validate stdout
for log in fig13:fig13 sinus:sinus_IS sinus:sinus_PA retry-storm:retry-storm; do
    spec=${log%%:*} name=replay-${log#*:}
    check "$name" "\"\$S\" replay scenarios/$spec.json scenarios/traces/${log#*:}_gatelog.jsonl"
    same "$name" stdout
done
echo "all outputs identical to $rev"
