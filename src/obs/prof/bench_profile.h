// BENCH_profile.json (schema alicoco.bench_profile.v1): the repo's one
// stage-profile format. Per stage it records wall time, its attribution
// to cpu / lock-wait / queue-wait / allocation, and the stage's domain
// counters; the whole run adds the measured disabled-mode
// instrumentation overhead. bench/obs_report writes it, and the copy
// committed at the repo root is the baseline tools/ci.sh gates against.
//
//   {
//     "schema": "alicoco.bench_profile.v1",
//     "world": "bench", "total_ms": 6380.0, "total_cpu_ms": 7622.4,
//     "peak_rss_mb": 25.4, "heap_tracked": true,
//     "stages": [
//       {"name": "mining", "wall_ms": 2256.3, "cpu_ms": 2577.6,
//        "lock_wait_ms": 0, "queue_wait_ms": 0, "alloc_mb": 778.8,
//        "allocs": 6471657, "counters": {"accepted": 57}},
//       ...
//     ],
//     "overhead": {"per_lock_ns": 0, ..., "pct_of_total": 0.31}
//   }
//
// Stage order is execution order; total_ms and total_cpu_ms are the
// sums over stages. Parsing accepts any field order and ignores unknown
// keys, so the format can grow without breaking committed baselines.
//
// Where the numbers come from (the attribution model, DESIGN.md §6):
//   wall_ms       steady-clock span of the stage on the driving thread.
//   cpu_ms        CLOCK_PROCESS_CPUTIME_ID delta — CPU burned by the
//                 whole process during the stage, workers included, so
//                 cpu_ms > wall_ms means the stage parallelized.
//   lock_wait_ms  delta of LockContentionMetrics' process totals: time
//                 threads spent blocked acquiring named mutexes.
//   queue_wait_ms delta of the worker pool's queue_wait_us histogram
//                 sum: task-in-queue latency before a worker picked
//                 it up.
//   alloc_mb /    delta of the heap hook counters: bytes and calls
//   allocs        requested from operator new during the stage.
//   counters      the registry's `pipeline.<stage>.*` counters and gauges
//                 at the end of the run (AttachStageCounters).
// Stages run sequentially, so process-wide deltas attribute cleanly to
// the stage that was active; worker-thread costs land in the stage that
// scheduled them, which is the attribution a stage owner wants.
//
// The overhead block answers "what does shipping the instrumentation
// cost when it is idle?": per-operation deltas measured by paired
// microloops (min over repetitions), multiplied by the run's real
// operation counts, expressed as a percentage of total wall time.
// bench/obs_report gates this under 1%.

#ifndef ALICOCO_OBS_PROF_BENCH_PROFILE_H_
#define ALICOCO_OBS_PROF_BENCH_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/prof/heap_stats.h"
#include "obs/prof/lock_metrics.h"

namespace alicoco::obs::prof {

struct StageAttribution {
  std::string name;
  double wall_ms = 0;
  double cpu_ms = 0;
  double lock_wait_ms = 0;
  double queue_wait_ms = 0;
  double alloc_mb = 0;
  uint64_t allocs = 0;
  std::map<std::string, double> counters;  ///< sorted for stable output
};

/// Idle-cost proof for the always-compiled-in instrumentation.
struct DisabledOverhead {
  double per_lock_ns = 0;   ///< named-mutex-no-sink minus plain mutex
  double per_alloc_ns = 0;  ///< hook-disabled new/delete minus baseline
  uint64_t lock_ops = 0;    ///< named-mutex acquisitions in the run
  uint64_t alloc_ops = 0;   ///< operator new calls in the run
  double pct_of_total = 0;  ///< projected idle cost / total wall time
};

struct BenchProfile {
  static constexpr char kSchemaId[] = "alicoco.bench_profile.v1";

  std::string world;
  double total_ms = 0;
  double total_cpu_ms = 0;
  double peak_rss_mb = 0;
  bool heap_tracked = false;  ///< alloc numbers are real, not zeros
  std::vector<StageAttribution> stages;
  DisabledOverhead overhead;

  const StageAttribution* FindStage(const std::string& name) const;
  std::string ToJson() const;
  static Result<BenchProfile> FromJson(const std::string& text);
};

/// Fills each stage's counters from every Counter and Gauge in `registry`
/// named `pipeline.<stage>.<key>`, keyed by `<key>`. Call after the build:
/// the values are the registry's totals, not per-stage deltas.
void AttachStageCounters(const Registry& registry,
                         std::vector<StageAttribution>* stages);

/// Regression gate: one human-readable line per baseline stage that is
/// missing from `current`, or whose current wall_ms or cpu_ms exceeds
/// `baseline * max_ratio + slack_ms`. Empty result = gate passes. The
/// slack term absorbs noise on stages whose absolute time is tiny.
std::vector<std::string> CompareBenchProfile(const BenchProfile& baseline,
                                             const BenchProfile& current,
                                             double max_ratio,
                                             double slack_ms);

/// Snapshots the attribution sources at stage boundaries. Drive it from
/// PipelineConfig::stage_profiler: the builder calls BeginStage at each
/// stage start and Finish after the last one; each BeginStage closes the
/// stage before it. Single-threaded use by the pipeline driver thread.
class StageProfiler {
 public:
  /// Any of the sources may be null; the matching columns read 0.
  /// `queue_wait_histogram` names a registry histogram whose sum is
  /// cumulative queue-wait microseconds (the ThreadPoolMetrics one).
  StageProfiler(const LockContentionMetrics* lock_metrics,
                const Registry* registry,
                std::string queue_wait_histogram);

  void BeginStage(const std::string& name);
  /// Closes the currently open stage, if any.
  void Finish();

  /// Finished stages, in execution order. Call after Finish.
  std::vector<StageAttribution> TakeStages();

 private:
  struct Cut {
    uint64_t wall_us = 0;
    uint64_t cpu_us = 0;
    uint64_t lock_wait_us = 0;
    uint64_t cv_wait_us = 0;
    double queue_wait_us_sum = 0;
    HeapCounters heap;
  };
  Cut TakeCut() const;
  void CloseStage(const Cut& now);

  const LockContentionMetrics* const lock_metrics_;
  const Registry* const registry_;
  const std::string queue_wait_histogram_;

  bool open_ = false;
  std::string open_name_;
  Cut open_cut_;
  std::vector<StageAttribution> stages_;
};

}  // namespace alicoco::obs::prof

#endif  // ALICOCO_OBS_PROF_BENCH_PROFILE_H_
