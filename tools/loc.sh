#!/usr/bin/env bash
# Non-test Rust lines per crate: for every src/**/*.rs, the lines before
# the file's first `#[cfg(test)]` (or `#![cfg(test)]`, for a test module
# in a file of its own). "Net-negative line counts are a success metric"
# (ROADMAP) is read off this table. The vendored shims, any
# `crates/*/benches` and `examples/` get rows too, so code leaving (or
# entering) them shows. After the total come the five largest files, so
# "no source file over ~800 lines" is read off the same output.
#
#   tools/loc.sh            # one row per crate, shim and examples/, the total, the five largest files
#   tools/loc.sh FILE...    # one row per file, then the total
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

non_test() {
    awk '/^[[:space:]]*#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
row() {
    printf '%-28s %6d\n' "$1" "$2"
    total=$((total + $2))
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        row "$f" "$(non_test "$f")"
    done
else
    shopt -s nullglob
    files=""
    for dir in crates/*/src src vendor/*/src crates/*/benches examples; do
        n=0
        while IFS= read -r f; do
            lines=$(non_test "$f")
            n=$((n + lines))
            files+="$lines $f"$'\n'
        done < <(find "$dir" -name '*.rs' | sort)
        row "${dir%/src}" "$n"
    done
fi
printf '%-28s %6d\n' total "$total"
if [ "$#" -eq 0 ]; then
    echo "largest files:"
    printf '%s' "$files" | sort -rn | head -n 5 | while read -r lines f; do
        printf '  %-44s %6d\n' "$f" "$lines"
    done
fi
