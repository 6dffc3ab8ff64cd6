#!/usr/bin/env bash
# Full verification ladder, in the order the steps run:
#
#   1. lint gate (tools/lint.sh): per-file rules over the whole tree, then
#      the cross-file passes (include-graph layering, lock-order deadlock
#      detection, discarded-result, CFG dataflow, untrusted-input taint)
#      via `alicoco_lint --project src`, leaving
#      build/lint/alicoco_lint.sarif for CI artifact upload
#   2. plain RelWithDebInfo build + full ctest
#   3. forced-scalar kernel tier: the full ctest again with
#      ALICOCO_SIMD=scalar so the portable kernels stay covered on AVX2
#      hardware
#   4. stage profile gate: obs_report's per-stage wall and cpu time vs the
#      committed BENCH_profile.json, disabled-overhead <1%, collapsed-stack
#      smoke and a schema re-read of the fresh profile
#   5. kernel smoke gate (bench_micro vs committed BENCH_kernels.json)
#   6. ASan+UBSan build + full ctest   (DCHECKs forced on)
#   7. corrupted-checkpoint corpus replay under ASan: every deserializer
#      over the committed truncated/bit-flipped inputs in tests/corpus/
#   8. TSan build + threaded tests     (DCHECKs forced on)
#
# Steps 6-8 are skipped with --fast.
#
# Any sanitizer report aborts the offending test (halt_on_error /
# -fno-sanitize-recover), so a non-zero ctest exit IS the sanitizer gate.
# Usage: tools/ci.sh [--fast]   (--fast: skip the sanitizer builds)

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n==== %s ====\n' "$*"; }

step "lint"
tools/lint.sh
# Every registered rule must be able to explain itself (rationale +
# bad/good example); spot-check the newest rule's card renders.
build/tools/lint/alicoco_lint --explain mutex-name-literal >/dev/null

step "plain build + tests"
cmake --preset default >/dev/null
cmake --build --preset default -j "${JOBS}"
ctest --preset default

step "forced-scalar kernel tier + tests"
# Re-run the suite with the kernel dispatcher pinned to the portable tier,
# so CI covers the scalar fp32/int8/fp16 kernels (and the quantized formats
# on top of them) even on AVX2 hardware where CPUID would pick SIMD.
ALICOCO_SIMD=scalar ctest --preset default

step "stage profile gate"
# Re-runs the instrumented bench pipeline and compares per-stage wall and
# cpu time against the committed baseline; a stage beyond 2x baseline +
# slack fails, as does idle instrumentation cost at or above 1% of wall.
# The generous ratio + slack absorb machine-to-machine variance while still
# catching order-of-magnitude stage regressions.
mkdir -p build/obs
build/bench/obs_report --out build/obs/BENCH_profile.json --outdir build/obs \
  --baseline BENCH_profile.json --max-regress 2.0 --slack-ms 500 \
  --overhead-limit 1.0
# The run must also leave a non-empty collapsed-stack dump (flamegraph
# input) and a profile whose schema the tooling can re-read.
test -s build/obs/profile.collapsed
python3 - <<'PY'
import json
prof = json.load(open("build/obs/BENCH_profile.json"))
assert prof["schema"] == "alicoco.bench_profile.v1", prof["schema"]
assert len(prof["stages"]) >= 9, [s["name"] for s in prof["stages"]]
mining = [s for s in prof["stages"] if s["name"] == "mining"]
assert mining and mining[0].get("counters"), mining
PY

step "kernel smoke gate"
# Deterministic kernel/fused-op/parallel-train timings vs the committed
# BENCH_kernels.json, with the same 2x + slack rule as the pipeline gate.
build/bench/bench_micro --kernels-out build/obs/BENCH_kernels.json \
  --baseline BENCH_kernels.json --max-regress 2.0 --slack-us 200

if [ "${FAST}" -eq 1 ]; then
  echo "--fast: skipping sanitizer builds"
  exit 0
fi

step "ASan + UBSan build + tests"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --preset asan

step "corrupted-checkpoint corpus replay (ASan)"
# Replays tests/corpus/ — truncated, bit-flipped, and oversized-count
# inputs for every deserializer (kg snapshot, nn checkpoint + quantized
# store, stage profile, SARIF) — under ASan explicitly,
# so a corrupt-input regression is named by the gate that catches it.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --preset asan -R CorpusReplay --output-on-failure

step "TSan build + threaded tests"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}"
# The threaded surface: the thread pool (incl. the race stress suite), the
# observability registry/tracer stress suite, the profiling-tier stress
# suite (sample ring, instrumented mutex, flight recorder), the heap
# counters' per-thread slots, and the trainers that fan out over the
# pool. Running the full suite under TSan works too but takes far longer
# for no extra thread coverage.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --preset tsan -R 'ThreadPool|ObsRace|ProfRace|HeapStats|LockStats|LockContentionMetrics|Training|Skipgram|Classifier|SequenceLabeler|Matching|Tagger|Projection'

step "all green"
