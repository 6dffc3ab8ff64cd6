#!/usr/bin/env python3
"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by perfbench/run.py (the directory
<build dir>/results holds one per run), or directories of them. Results are
grouped by workload; only --trace 0 results are compared.

The comparison is refused (exit 2) when the two sides do not share one host
block -- core count, builder worker count, SIMD kernel tier, compiler and
build type -- because the figures of different hosts are not comparable.
Otherwise, for every workload and end-to-end metric, the medians of the two
sides are compared: NEW is a regression when it is worse than BASE by more
than the metric's bound. A metric whose own spread on either side (distance
between quartiles over median) exceeds its bound is reported as unresolved
instead of unchanged. The net fingerprints of the build workloads are
compared too: a difference means the built net changed. Exit code 1 when any
metric regressed, else 0.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "builder_workers", "kernel_tier", "compiler",
             "build_type")


def load(path):
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    results = []
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        if r.get("trace") == 0:
            results.append(r)
    return results


def host_blocks(results):
    return {tuple((k, r["host"].get(k)) for k in HOST_KEYS) for r in results}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: no --trace 0 results on one side", file=sys.stderr)
        return 2
    hosts = host_blocks(base) | host_blocks(new)
    if len(hosts) != 1:
        print("compare: refused, the results come from different hosts:",
              file=sys.stderr)
        for h in sorted(hosts):
            print("  " + ", ".join("%s=%s" % kv for kv in h), file=sys.stderr)
        return 2

    regressions = 0
    print("%-15s %-24s %14s %14s %8s  %s" % (
        "workload", "metric", "base median", "new median", "change",
        "verdict"))
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print("%-15s (only on one side)" % workload)
            continue
        for name in sorted(spec):
            bv = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n
                  if name in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if spec[name]["better"] == "lower" else -change
            bound = spec[name]["bound"]
            if worse > bound:
                verdict = "REGRESSION (bound %.2f)" % bound
                regressions += 1
            elif max(spread(bv), spread(nv)) > bound:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound %.2f" % bound
            print("%-15s %-24s %14.6g %14.6g %+7.1f%%  %s" % (
                workload, name, bm, nm, 100 * change, verdict))
        fps = [{fp for r in side
                for fp in r["info"].get("net_fingerprints", "").split(",")
                if fp} for side in (b, n)]
        if fps[0] and fps[1]:
            same = fps[0] == fps[1]
            print("%-15s %-24s %s" % (
                workload, "net fingerprint",
                "same" if same else "DIFFERENT: the built net changed"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
