#!/usr/bin/env python3
"""Alternating A/B pairs of untraced ledger runs.

    python3 test/ab_pairs.py PARENT_EXE CHANGE_EXE WORKLOAD [--pairs N] [--seed S] [--seconds T]

runs `EXE run --workload WORKLOAD --seed S --seconds T --trace 0` for
PARENT_EXE and CHANGE_EXE, N pairs (default 10, seed 42, 20 s), one run
at a time from a temporary directory, with the side that runs first
alternating from pair to pair.  Every run must exit 0 and report
"correct": true and 0 failed operations, and both sides must print the
same output digest; otherwise the script exits 1.

It prints each pair, then for every end-to-end metric of BENCHMARK.json
the parent's and the change's median with quartiles, and in how many
pairs the change was better (by the metric's own direction).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def run(exe, workload, seed, seconds, cwd, out):
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--out", out]
    code = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL).returncode
    if code != 0:
        sys.exit(f"{exe}: exit {code}")
    r = json.load(open(out))
    res = r["result"]
    if not res["correct"] or res["failed"] != 0:
        sys.exit(f"{exe}: correct={res['correct']} failed={res['failed']}")
    return r["output_digest"], {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    a = ap.parse_args()
    if a.pairs < 1:
        sys.exit("--pairs must be at least 1")
    metrics = json.load(open(BENCHMARK))["end_to_end"]
    sides = {"parent": os.path.abspath(a.parent), "change": os.path.abspath(a.change)}
    results = {"parent": [], "change": []}
    digests = set()
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(a.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                digest, values = run(sides[side], a.workload, a.seed, a.seconds, tmp,
                                     os.path.join(tmp, f"{side}-{i}.json"))
                digests.add(digest)
                results[side].append(values)
            if len(digests) != 1:
                sys.exit(f"pair {i + 1}: output digests differ: {sorted(digests)}")
            p, c = results["parent"][i], results["change"][i]
            cells = "  ".join(f"{m['name']} {p[m['name']]:.6g} -> {c[m['name']]:.6g}" for m in metrics)
            print(f"pair {i + 1} ({order[0]} first): {cells}", flush=True)
    print(f"{a.workload} seed {a.seed} --seconds {a.seconds}, {a.pairs} pairs, digest {digests.pop()}, "
          "all runs correct with 0 failed operations")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r[name] for r in results["parent"]]
        c = [r[name] for r in results["change"]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        print(f"  {name:15} parent {statistics.median(p):.6g} ({p1:.6g}-{p3:.6g})  "
              f"change {statistics.median(c):.6g} ({c1:.6g}-{c3:.6g})  "
              f"change better in {wins}/{a.pairs}  [{m['unit']}, {m['better']} is better]")


if __name__ == "__main__":
    main()
