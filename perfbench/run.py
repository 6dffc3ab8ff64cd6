#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads: build, build_profiled, serve, match (see perfbench/README.md).
The first call configures and compiles the benchmark package
(perfbench/CMakeLists.txt, which compiles ../src) into $CARGO_TARGET_DIR,
default .bench_build; later calls rebuild incrementally.

Standard output ends with two lines:

    perfbench detail: {...}   the full result: host block, checks, failures,
                              net fingerprints, every metric
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; every workload reports all of them
(--trace 1 adds the heap hook's cost, measured in a separate run of the
heap-hooked binary). Each result is also written to
<build dir>/results/ for perfbench/compare.py. The exit code is 0 when the
workload ran; it is 1, with no result line, when the benchmark could not be
built or the workload did not produce a complete result.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

WORKLOADS = ("build", "build_profiled", "serve", "match")


def manifest_metrics(root):
    """The end-to-end and per-layer metric names of BENCHMARK.json: every
    workload reports all of them."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return ([m["name"] for m in manifest["end_to_end"]],
            [m["name"] for m in manifest["per_layer"]])


# A run's programs together may not take longer than this (the set-up, the
# measured loop and, with --trace 1, the layer probes take well under it).
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir(root):
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, path, "perfbench")


def build(bench_dir, out_dir):
    """Configures (once) and builds both programs; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "perfbench_profiled", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def source_digest(root):
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("bench", "bench_util.h")):
        base = os.path.join(root, top)
        files = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in sorted(files):
            if "__pycache__" in path:
                continue
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit_of(root):
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout; see source_digest)"


def record_fingerprints(out_dir, result):
    """Appends this run's net fingerprints to the workload's ledger and
    reports whether every run recorded for the same sources agrees."""
    fps = result.get("info", {}).get("net_fingerprints")
    if not fps:
        return
    ledger_dir = os.path.join(out_dir, "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    key = "%s-world%s-%s" % (result["workload"], result["world_seed"],
                             result["host"]["source_digest"])
    path = os.path.join(ledger_dir, key + ".txt")
    with open(path, "a") as f:
        f.write(fps + "\n")
    with open(path) as f:
        seen = set(",".join(line.strip() for line in f).split(","))
    seen.discard("")
    result["info"]["net_fingerprint_distinct_across_runs"] = len(seen)


def run_binary(out_dir, binary, workload, args, work_dir, timeout):
    """Runs one benchmark program; its result object, or None."""
    cmd = [os.path.join(out_dir, binary), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", work_dir,
           "--world-seed", str(args.world_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("%s timed out after %ds" % (binary, timeout))
        return None
    if proc.returncode != 0:
        log("%s exited with %d" % (binary, proc.returncode))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result from " + binary)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=0,
                        help="re-seed every world (default: the bench "
                             "world's own seed)")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out_dir = build_dir(root)
    os.makedirs(out_dir, exist_ok=True)
    if not build(bench_dir, out_dir):
        return 1

    try:
        end_to_end, per_layer = manifest_metrics(root)
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 1

    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    started = time.monotonic()
    binary = "perfbench_profiled" if args.workload == "build_profiled" \
        else "perfbench"

    def remaining():
        return max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started))

    result = run_binary(out_dir, binary, args.workload, args, work_dir,
                        remaining())
    if result is None:
        return 1
    if args.trace:
        probe = run_binary(out_dir, "perfbench_profiled", "heap_probe", args,
                           work_dir, remaining())
        if probe is None:
            return 1
        result["metrics"].update(probe["metrics"])
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["failures"] += probe["failures"]
        result["correct"] = result["correct"] and probe["correct"]

    expected = per_layer if args.trace else end_to_end
    metrics = result.get("metrics", {})
    missing = [m for m in expected
               if m not in metrics or metrics[m]["value"] is None
               or not math.isfinite(metrics[m]["value"])]
    if missing:
        log("workload did not report: " + ", ".join(missing))
        for failure in result.get("failures", []):
            log("failure: " + failure)
        return 1

    result["world_seed"] = args.world_seed or "bench"
    result["wall_s"] = round(time.monotonic() - started, 3)
    result["host"]["commit"] = commit_of(root)
    result["host"]["source_digest"] = source_digest(root)
    record_fingerprints(out_dir, result)
    for failure in result.get("failures", []):
        log("check failed: " + failure)

    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d-world%s.json" % (
        args.workload, args.seed, args.trace, result["world_seed"])
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m: metrics[m] for m in expected},
    }
    print("perfbench detail: " + json.dumps(result, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
