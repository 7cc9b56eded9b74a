#!/usr/bin/env python3
"""Symbolizes a profile written by prof.c: `sym.py run.prof [top]`.

Prints, by share of samples, the top non-inlined functions (where the
program counter was), the top inlined frames (the innermost function the
source attributes it to) and the top source lines. Needs binutils'
`addr2line` and a binary built with debug info.
"""
import collections
import subprocess
import sys


def main():
    path = sys.argv[1]
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    maps, samples = [], []
    for line in open(path):
        kind, rest = line.split(" ", 1)
        if kind == "M":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
        else:
            samples.append(int(rest, 16))
    # A position-independent binary's addresses count from its first mapping.
    base = {}
    for lo, _, obj in maps:
        base[obj] = min(lo, base.get(obj, lo))
    by_obj = collections.defaultdict(list)
    for pc in samples:
        obj = next((o for lo, hi, o in maps if lo <= pc < hi), None)
        by_obj[obj].append(pc - base.get(obj, 0))
    outer, inner, lines = (collections.Counter() for _ in range(3))
    for obj, pcs in by_obj.items():
        if obj is None:
            outer["[unmapped]"] += len(pcs)
            continue
        counts = collections.Counter(pcs)
        query = "\n".join(hex(pc) for pc in counts)
        out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
                             input=query, capture_output=True, text=True).stdout
        # Per address: "0x..", then (function, file:line) pairs, innermost first.
        for block in out.split("\n0x"):
            rows = block.strip().split("\n")
            weight = counts[int(rows[0], 16)]
            frames = list(zip(rows[1::2], rows[2::2]))
            if not frames or frames[-1][0] == "??":
                outer["[%s]" % obj.rsplit("/", 1)[-1]] += weight
                continue
            outer[frames[-1][0]] += weight
            inner[frames[0][0]] += weight
            lines["%s  (%s)" % (frames[0][1].split(" ")[0], frames[0][0])] += weight
    total = len(samples)
    print("%d samples" % total)
    for title, table in (("non-inlined functions", outer),
                         ("inlined frames", inner), ("source lines", lines)):
        print("\ntop %s" % title)
        for name, n in table.most_common(top):
            print("  %5.1f %%  %s" % (100.0 * n / total, name))


main()
