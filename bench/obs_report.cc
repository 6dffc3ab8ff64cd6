// obs_report: the observability harness and perf-trajectory gate.
//
// Runs the bench world through the full construction pipeline with the
// tracer + metrics registry + profiling tier attached and writes the
// run's whole picture:
//
//   BENCH_profile.json   the stage profile (--out, schema
//                        alicoco.bench_profile.v1, obs/prof/bench_profile.h):
//                        per-stage wall/cpu/lock-wait/queue-wait/alloc
//                        attribution + domain counters, and the
//                        disabled-mode overhead proof
//
// and, into --outdir:
//
//   profile.collapsed    collapsed-stack CPU samples (flamegraph input)
//   metrics.prom         Prometheus text exposition of every metric,
//                        including per-named-mutex contention series
//   trace.jsonl          every span, including nested stage detail
//   build.log            Logger records routed through obs::FileLogSink
//   crash_flight.jsonl   flight-recorder dump — only on CHECK failure
//                        or fatal signal
//
// Gates (every failing check is printed, then exit 1):
//   --baseline FILE          per-stage wall and cpu time vs a committed
//                            profile (CompareBenchProfile)
//   --overhead-limit PCT     projected idle instrumentation cost must
//                            stay under PCT% of total wall (default 1.0)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/lock_stats.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/table_printer.h"
#include "obs/exporters.h"
#include "obs/prof/bench_profile.h"
#include "obs/prof/cpu_profiler.h"
#include "obs/prof/flight_recorder.h"
#include "obs/prof/heap_stats.h"
#include "obs/prof/lock_metrics.h"
#include "pipeline/builder.h"

namespace {

using alicoco::obs::prof::DisabledOverhead;

struct Options {
  std::string out = "BENCH_profile.json";
  std::string outdir = ".";
  std::string baseline;          // empty = no gate
  double max_regress = 2.0;      // tolerant: CI machines are noisy
  double slack_ms = 250.0;       // absolute floor for tiny stages
  double overhead_limit = 1.0;   // % of total wall time
  int cpu_hz = 197;
  bool fast = false;             // smaller world for smoke runs
};

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->out = v;
    } else if (arg == "--outdir") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->outdir = v;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->baseline = v;
    } else if (arg == "--max-regress") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->max_regress = std::atof(v);
    } else if (arg == "--slack-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->slack_ms = std::atof(v);
    } else if (arg == "--overhead-limit") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->overhead_limit = std::atof(v);
    } else if (arg == "--cpu-hz") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->cpu_hz = std::atoi(v);
    } else if (arg == "--fast") {
      opts->fast = true;
    } else {
      std::fprintf(
          stderr,
          "usage: obs_report [--out FILE] [--outdir DIR] [--baseline FILE] "
          "[--max-regress X] [--slack-ms MS] [--overhead-limit PCT] "
          "[--cpu-hz HZ] [--fast]\n");
      return false;
    }
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "obs_report: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

/// Routes one record to both the file sink and the flight recorder.
class TeeLogSink : public alicoco::LogSink {
 public:
  TeeLogSink(alicoco::LogSink* a, alicoco::LogSink* b) : a_(a), b_(b) {}
  void Write(const alicoco::LogRecord& record) override {
    if (a_ != nullptr) a_->Write(record);
    if (b_ != nullptr) b_->Write(record);
  }

 private:
  alicoco::LogSink* const a_;
  alicoco::LogSink* const b_;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-operation idle cost of the always-compiled-in instrumentation,
/// by paired microloops. A whole-pipeline A/B would drown a sub-1%
/// signal in CI noise; a per-op delta taken as the min over repetitions
/// (minimum = least scheduler interference) multiplied by the run's real
/// operation counts is stable.
DisabledOverhead MeasureDisabledOverhead(uint64_t lock_ops,
                                         uint64_t alloc_ops,
                                         double total_ms) {
  using alicoco::Mutex;
  constexpr int kIters = 200000;
  constexpr int kReps = 5;

  // No sink may be installed during this measurement: we are pricing the
  // "compiled in, nobody listening" configuration the binary ships with.
  alicoco::InstallLockStatsSink(nullptr);
  alicoco::obs::prof::SetHeapTrackingEnabled(false);

  double lock_delta_ns = 1e9;
  for (int rep = 0; rep < kReps; ++rep) {
    Mutex named{"overhead.probe"};
    Mutex plain;
    uint64_t t0 = NowNs();
    for (int i = 0; i < kIters; ++i) {
      named.lock();
      named.unlock();
    }
    uint64_t t1 = NowNs();
    for (int i = 0; i < kIters; ++i) {
      plain.lock();
      plain.unlock();
    }
    uint64_t t2 = NowNs();
    double delta = (static_cast<double>(t1 - t0) -
                    static_cast<double>(t2 - t1)) /
                   kIters;
    lock_delta_ns = std::min(lock_delta_ns, delta);
  }

  double alloc_delta_ns = 1e9;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t t0 = NowNs();
    for (int i = 0; i < kIters; ++i) {
      // Out-of-line volatile probe (alloc_hook.cc): the allocation cannot
      // be elided, and the call overhead matches the malloc loop below so
      // it cancels in the subtraction.
      alicoco::obs::prof::HeapProbeAlloc(64);
    }
    uint64_t t1 = NowNs();
    for (int i = 0; i < kIters; ++i) {
      alicoco::obs::prof::HeapProbeMalloc(64);
    }
    uint64_t t2 = NowNs();
    double delta = (static_cast<double>(t1 - t0) -
                    static_cast<double>(t2 - t1)) /
                   kIters;
    alloc_delta_ns = std::min(alloc_delta_ns, delta);
  }

  DisabledOverhead overhead;
  overhead.per_lock_ns = std::max(0.0, lock_delta_ns);
  overhead.per_alloc_ns = std::max(0.0, alloc_delta_ns);
  overhead.lock_ops = lock_ops;
  overhead.alloc_ops = alloc_ops;
  const double projected_ns =
      overhead.per_lock_ns * static_cast<double>(lock_ops) +
      overhead.per_alloc_ns * static_cast<double>(alloc_ops);
  overhead.pct_of_total =
      total_ms > 0 ? projected_ns / (total_ms * 1e6) * 100.0 : 0;
  return overhead;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alicoco;
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) return 2;

  obs::Tracer tracer;
  obs::Registry registry;

  // Profiling tier: flight recorder first (so crash dumps cover world
  // generation too), then contention sink, heap tracking, CPU profiler.
  obs::prof::FlightRecorder recorder(2048);
  recorder.InstallCrashDump(opts.outdir + "/crash_flight.jsonl");
  tracer.SetSpanListener(obs::prof::MakeSpanFlightListener(&recorder));

  obs::prof::LockContentionMetrics lock_metrics(&registry);
  ScopedLockStatsSink scoped_sink(&lock_metrics);

  obs::prof::SetHeapTrackingEnabled(true);
  if (!obs::prof::HeapHookLinked()) {
    std::fprintf(stderr,
                 "obs_report: alloc hook not linked; alloc columns will "
                 "read 0\n");
  }

  obs::FileLogSink log_sink(opts.outdir + "/build.log");
  obs::prof::FlightRecorderLogSink flight_log_sink(&recorder);
  TeeLogSink tee(log_sink.status().ok() ? &log_sink : nullptr,
                 &flight_log_sink);
  if (!log_sink.status().ok()) {
    std::fprintf(stderr, "obs_report: %s (logging to stderr)\n",
                 log_sink.status().ToString().c_str());
  }
  Logger::SetSink(&tee);

  datagen::WorldConfig world_cfg = bench::BenchWorldConfig();
  if (opts.fast) {
    world_cfg.num_items = 400;
    world_cfg.titles = 800;
    world_cfg.reviews = 300;
    world_cfg.guides = 250;
    world_cfg.queries = 200;
    world_cfg.num_good_ec_concepts = 80;
    world_cfg.num_bad_ec_concepts = 80;
    world_cfg.num_users = 50;
    world_cfg.num_needs_queries = 150;
  }

  std::printf("== obs_report: instrumented pipeline run (%s world) ==\n",
              opts.fast ? "fast" : "bench");
  recorder.Record("obs_report start");
  datagen::World world = [&] {
    bench::StageTimer t("generate world");
    return datagen::World::Generate(world_cfg);
  }();
  auto resources = [&] {
    bench::StageTimer t("train embeddings + LM");
    return std::make_unique<datagen::WorldResources>(
        world, datagen::ResourcesConfig{});
  }();

  obs::prof::StageProfiler stage_profiler(
      &lock_metrics, &registry, "pipeline.worker_pool.queue_wait_us");

  pipeline::PipelineConfig cfg;
  cfg.labeler.epochs = 3;
  cfg.mining_epochs = 2;
  cfg.projection.epochs = 3;
  cfg.classifier.epochs = 3;
  cfg.tagger.epochs = 4;
  cfg.matcher.base.epochs = 2;
  cfg.association_candidates = opts.fast ? 60 : 120;
  cfg.tracer = &tracer;
  cfg.metrics = &registry;
  cfg.stage_profiler = &stage_profiler;

  obs::prof::CpuProfiler cpu_profiler;
  obs::prof::CpuProfilerOptions prof_opts;
  prof_opts.sample_hz = opts.cpu_hz;
  Status prof_status = cpu_profiler.Start(prof_opts);
  if (!prof_status.ok()) {
    std::fprintf(stderr, "obs_report: cpu profiler unavailable: %s\n",
                 prof_status.ToString().c_str());
  }

  pipeline::AliCoCoBuilder builder(&world, resources.get(), cfg);
  pipeline::BuildReport report;
  Result<kg::ConceptNet> net = [&] {
    bench::StageTimer t("instrumented construction pipeline");
    return builder.Build(&report);
  }();
  if (cpu_profiler.running()) {
    Status stop = cpu_profiler.Stop();
    if (!stop.ok()) {
      std::fprintf(stderr, "obs_report: profiler stop: %s\n",
                   stop.ToString().c_str());
    }
  }
  obs::prof::HeapCounters heap_at_end = obs::prof::HeapCountersNow();
  Logger::SetSink(nullptr);
  recorder.Record("pipeline done");
  if (!net.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 net.status().ToString().c_str());
    return 1;
  }

  std::vector<obs::SpanRecord> spans = tracer.Records();

  obs::prof::BenchProfile profile;
  profile.world = opts.fast ? "bench-fast" : "bench";
  profile.stages = stage_profiler.TakeStages();
  obs::prof::AttachStageCounters(registry, &profile.stages);
  for (const auto& stage : profile.stages) {
    profile.total_ms += stage.wall_ms;
    profile.total_cpu_ms += stage.cpu_ms;
  }
  profile.peak_rss_mb =
      static_cast<double>(obs::prof::PeakRssBytes()) / (1024.0 * 1024.0);
  profile.heap_tracked = obs::prof::HeapHookLinked();
  profile.overhead = MeasureDisabledOverhead(
      lock_metrics.total_acquires(), heap_at_end.allocs, profile.total_ms);

  obs::prof::CpuProfile cpu_profile = cpu_profiler.TakeProfile();

  bool io_ok = WriteFile(opts.out, profile.ToJson());
  io_ok &= WriteFile(opts.outdir + "/profile.collapsed",
                     cpu_profile.ToCollapsed());
  io_ok &= WriteFile(opts.outdir + "/metrics.prom",
                     obs::ExportPrometheusText(registry));
  io_ok &= WriteFile(opts.outdir + "/trace.jsonl",
                     obs::ExportTraceJsonl(spans));

  TablePrinter table("Per-stage attribution (" + profile.world + " world)");
  table.SetHeader({"stage", "wall_ms", "cpu_ms", "lock_wait_ms",
                   "queue_wait_ms", "alloc_mb"});
  for (const auto& stage : profile.stages) {
    table.AddRow({stage.name, TablePrinter::Num(stage.wall_ms, 1),
                  TablePrinter::Num(stage.cpu_ms, 1),
                  TablePrinter::Num(stage.lock_wait_ms, 2),
                  TablePrinter::Num(stage.queue_wait_ms, 2),
                  TablePrinter::Num(stage.alloc_mb, 1)});
  }
  table.Print();
  std::printf(
      "total: %.1fms wall, %.1fms cpu, peak rss %.0fMB, %zu spans, "
      "%llu cpu samples (%llu dropped)\n",
      profile.total_ms, profile.total_cpu_ms,
      profile.peak_rss_mb, spans.size(),
      static_cast<unsigned long long>(cpu_profile.samples),
      static_cast<unsigned long long>(cpu_profile.dropped));
  std::fputs(cpu_profile.TopNText(10).c_str(), stdout);
  std::printf(
      "disabled-mode overhead: %.2fns/lock x %llu + %.2fns/alloc x %llu "
      "= %.4f%% of wall\n",
      profile.overhead.per_lock_ns,
      static_cast<unsigned long long>(profile.overhead.lock_ops),
      profile.overhead.per_alloc_ns,
      static_cast<unsigned long long>(profile.overhead.alloc_ops),
      profile.overhead.pct_of_total);

  if (!io_ok) return 1;

  // ---- Gates: idle instrumentation cost, then per-stage wall and cpu
  // time vs the committed baseline. Every failure is reported. ----
  bool gate_ok = true;
  if (profile.overhead.pct_of_total >= opts.overhead_limit) {
    std::fprintf(stderr,
                 "OVERHEAD: disabled-mode instrumentation projects to "
                 "%.4f%% of wall time (limit %.2f%%)\n",
                 profile.overhead.pct_of_total, opts.overhead_limit);
    gate_ok = false;
  }
  if (!opts.baseline.empty()) {
    std::ifstream in(opts.baseline, std::ios::binary);
    if (!in.is_open()) {
      std::fprintf(stderr, "obs_report: cannot read baseline %s\n",
                   opts.baseline.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Result<obs::prof::BenchProfile> baseline =
        obs::prof::BenchProfile::FromJson(text.str());
    if (!baseline.ok()) {
      std::fprintf(stderr, "obs_report: bad baseline: %s\n",
                   baseline.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> regressions = obs::prof::CompareBenchProfile(
        *baseline, profile, opts.max_regress, opts.slack_ms);
    for (const auto& line : regressions) {
      std::fprintf(stderr, "REGRESSION: %s\n", line.c_str());
    }
    if (regressions.empty()) {
      std::printf("baseline gate passed (max-regress %.1fx, slack %.0fms)\n",
                  opts.max_regress, opts.slack_ms);
    }
    gate_ok &= regressions.empty();
  }
  return gate_ok ? 0 : 1;
}
