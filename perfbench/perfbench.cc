// perfbench: the repository benchmark program.
//
// One binary per process kind (see CMakeLists.txt); each invocation runs
// one workload and prints one JSON object as its last stdout line:
//
//   perfbench          --workload build|serve|match
//   perfbench_profiled --workload build_profiled|heap_probe
//   common flags: --seed N --seconds S --trace 0|1 --workdir DIR
//                 [--world-seed N]
//
// Every workload reports the same end-to-end metrics (setup_s,
// latency_p50_ms, quality), measured with every benchmark-side span off.
// With --trace 1 the workload's own work runs twice — once untraced, once
// traced — and the layers it does not exercise are measured by probes on
// the bench world, so that every workload reports every per-layer metric;
// heap_probe adds the heap hook's cost from the hooked binary. Every
// operation the workload issues is counted in `attempted`; the ones whose
// output fails a check are counted in `failed` and described in
// `failures`. perfbench/run.py builds the binaries, adds the host block's
// build fields and reduces the object to the result line. README.md in
// this directory documents the workloads and the metric map.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/question_answering.h"
#include "apps/recommender.h"
#include "apps/search_relevance.h"
#include "bench_util.h"
#include "common/lock_stats.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/resources.h"
#include "datagen/world.h"
#include "kg/persistence.h"
#include "matching/dataset.h"
#include "matching/knowledge_matcher.h"
#include "nn/kernels.h"
#include "nn/quant.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/pool_metrics.h"
#include "obs/prof/bench_profile.h"
#include "obs/prof/cpu_profiler.h"
#include "obs/prof/flight_recorder.h"
#include "obs/prof/heap_stats.h"
#include "obs/prof/lock_metrics.h"
#include "obs/trace.h"
#include "pipeline/builder.h"
#include "text/tokenizer.h"

namespace {

using namespace alicoco;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small utilities

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// Linear-interpolated quantile of unsorted samples; NaN when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// 64-bit FNV-1a: a stable fingerprint of the persisted net's bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Result accumulation

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  // pre-rendered JSON values
  std::vector<std::string> failures;        // first few, for the log
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& key, const std::string& text) {
    info[key] = "\"" + JsonEscape(text) + "\"";
  }
  void InfoNum(const std::string& key, double v) { info[key] = JsonNumber(v); }
  /// Counts one operation; `ok` false counts it as failed.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// Per-span self time (duration minus direct children), summed by layer:
/// the span name's first dot-separated component.
std::map<std::string, double> SelfMsByLayer(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<uint64_t, uint64_t> child_us;
  for (const auto& s : spans) {
    if (s.parent_id != 0) child_us[s.parent_id] += s.duration_us;
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    std::string layer = s.name.substr(0, s.name.find('.'));
    double self = static_cast<double>(s.duration_us) -
                  static_cast<double>(child_us[s.id]);
    out[layer] += std::max(0.0, self) / 1000.0;
  }
  return out;
}

/// Median wall time of each span name, in ms.
std::map<std::string, double> MedianMsByName(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& s : spans) {
    by_name[s.name].push_back(static_cast<double>(s.duration_us) / 1000.0);
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : by_name) out[name] = Median(v);
  return out;
}

std::string JoinNumbers(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ",") + JsonNumber(x);
  return out;
}

// Keeps results observable so timed loops cannot be optimized away.
std::atomic<uint64_t> g_sink{0};

// ---------------------------------------------------------------------------
// Machine-speed reference
//
// On a shared virtual machine the speed of a core drifts by up to ~1.7x
// over periods of seconds, as neighbours come and go, and the hypervisor
// steals time from the vCPUs. Every timing in the result therefore has the
// stolen time taken out (TimeScaled) and is rescaled by a fixed compute
// kernel run next to it:
//
//   reported = (measured - stolen / threads) * kRefNominalUs / reference_us
//
// so a value reads as the time the work would take on a machine that runs
// the reference kernel in kRefNominalUs. The kernels are the benchmark's
// own code — integer mixing and float multiply-adds over L1-resident
// arrays; no allocation and no library call — so no change to the library
// can move them. Each measurement is a warm pass. The raw figures stay in
// the detail output under `raw.`.

constexpr double kRefNominalUs = 125.0;

struct RefKernelState {
  float a[32 * 32], b[32 * 32], c[32 * 32];
  uint32_t table[1024];

  RefKernelState() {
    for (int i = 0; i < 32 * 32; ++i) {
      a[i] = static_cast<float>(i % 7) * 0.1f;
      b[i] = static_cast<float>(i % 5) * 0.2f;
      c[i] = 0;
    }
    uint64_t x = 7;
    for (uint32_t& t : table) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      t = static_cast<uint32_t>(x >> 33);
    }
  }
};

// Two kernels, because the host's slow and fast states (a co-tenant on the
// physical core, presumably) move different work by different factors.
// Measured across one such change: serve requests 1.95x, match pages
// 1.67x, builds 1.37x; the throughput kernel 1.85x, the serial kernel
// 1.3x. Single-threaded loops are therefore scaled by the throughput
// kernel and multi-threaded builds by the serial one.
enum class RefKind {
  kThroughput,  // eight independent multiply-xor chains over an L1 table
  kSerial,      // float multiply-adds plus one serial integer chain
};

void RefKernelPass(RefKind kind, RefKernelState& st) {
  if (kind == RefKind::kThroughput) {
    constexpr int kLanes = 8;
    uint64_t h[kLanes];
    for (int l = 0; l < kLanes; ++l) h[l] = static_cast<uint64_t>(l) + 1;
    for (uint64_t i = 0; i < 12000; ++i) {
      for (int l = 0; l < kLanes; ++l) {
        h[l] = ((h[l] ^ (h[l] >> 29)) + st.table[h[l] & 1023]) *
                   0xbf58476d1ce4e5b9ull +
               i;
      }
    }
    uint64_t sum = 0;
    for (uint64_t v : h) sum += v;
    g_sink += sum;
    return;
  }
  for (int rep = 0; rep < 5; ++rep) {
    for (int i = 0; i < 32; ++i) {
      for (int k = 0; k < 32; ++k) {
        float av = st.a[i * 32 + k];
        for (int j = 0; j < 32; ++j) st.c[i * 32 + j] += av * st.b[k * 32 + j];
      }
    }
  }
  uint64_t h = 1;
  for (int i = 0; i < 26000; ++i) {
    h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull;
    if (h & 1) h += static_cast<uint64_t>(i);
  }
  g_sink += h + static_cast<uint64_t>(st.c[5]);
}

/// A reference kernel on the calling thread: a warm-up pass, then the
/// median of three timed passes, in wall-clock us.
double RefKernelUs(RefKind kind = RefKind::kThroughput) {
  thread_local RefKernelState st;
  RefKernelPass(kind, st);
  std::vector<double> us;
  for (int i = 0; i < 3; ++i) {
    auto t0 = Clock::now();
    RefKernelPass(kind, st);
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return Median(us);
}

/// The reference for work on `threads` threads: the throughput kernel on
/// one thread, else the serial kernel on all of them at once (the mean of
/// their times, i.e. the speed of all the cores a parallel phase uses).
double RefKernelUsOnThreads(int threads) {
  if (threads <= 1) return RefKernelUs();
  std::vector<double> us(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&us, t] {
      us[static_cast<size_t>(t)] = RefKernelUs(RefKind::kSerial);
    });
  }
  for (auto& th : pool) th.join();
  double sum = 0;
  for (double u : us) sum += u;
  return sum / threads;
}

/// Time the hypervisor gave this machine's runnable vCPUs to other guests
/// ("steal" in /proc/stat, summed over CPUs), in s; 0 where unavailable.
/// Wall time is corrected by it because on a shared host it grows with the
/// neighbours' load, not with the work measured.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};
  stat >> cpu;
  for (uint64_t& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0;
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Factor that rescales a duration measured next to a reference pass of
/// `ref_us` to the nominal machine (multiply durations, divide rates).
double SpeedScale(double ref_us) { return kRefNominalUs / ref_us; }

/// Wall time of `fn` on `threads` threads: as measured, and with the
/// time stolen from those threads taken out and speed-scaled by reference
/// passes just before and after it on as many threads (a reference thread
/// running alongside the work would share cores with it and measure the
/// work's own load).
///
/// Steal only accrues while a vCPU has a runnable thread, so the stolen
/// total is time the work's threads lost. A parallel phase waits for its
/// slowest thread, so that loss delays the work by the stolen total over
/// the phase's average parallelism (process CPU over wall), not over the
/// thread count: a build at ~1.7 busy threads that lost 1 s to steal
/// finished ~0.6 s late, not 0.25 s.
struct Timed {
  double raw_s = 0;
  double scaled_s = 0;
};
template <typename Fn>
Timed TimeScaled(Fn&& fn, int threads = 1) {
  double before = RefKernelUsOnThreads(threads);
  double steal0 = StealSeconds();
  double cpu0 = ProcessCpuSeconds();
  auto t0 = Clock::now();
  fn();
  double raw = SecondsSince(t0);
  double busy = std::clamp((ProcessCpuSeconds() - cpu0) / raw, 1.0,
                           static_cast<double>(threads));
  double stolen = (StealSeconds() - steal0) / busy;
  double after = RefKernelUsOnThreads(threads);
  return Timed{raw, std::max(raw / 2, raw - stolen) *
                        SpeedScale((before + after) / 2)};
}

/// Per-call cost of `fn` in ns, speed-scaled: `passes` timed passes of
/// `calls_per_pass` calls each, median pass.
template <typename Fn>
double NsPerCall(size_t calls_per_pass, int passes, Fn&& fn) {
  const double calls =
      static_cast<double>(std::max<size_t>(1, calls_per_pass));
  std::vector<double> per_call;
  for (int p = 0; p < passes; ++p) {
    per_call.push_back(TimeScaled(fn).scaled_s * 1e9 / calls);
  }
  return Median(per_call);
}

int BuilderWorkers() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  uint64_t world_seed = 0;  // 0 = the bench world's own seed
};

/// The world every workload starts from: bench::BenchWorldConfig(), with
/// its seed replaced when --world-seed is given.
datagen::WorldConfig WorldConfigFor(const Options& opts) {
  datagen::WorldConfig cfg = bench::BenchWorldConfig();
  if (opts.world_seed != 0) cfg.seed = opts.world_seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// build / build_profiled

/// obs_report's stage settings (bench/obs_report.cc), minus its observers.
pipeline::PipelineConfig ObsReportStageConfig() {
  pipeline::PipelineConfig cfg;
  cfg.labeler.epochs = 3;
  cfg.mining_epochs = 2;
  cfg.projection.epochs = 3;
  cfg.classifier.epochs = 3;
  cfg.tagger.epochs = 4;
  cfg.matcher.base.epochs = 2;
  cfg.association_candidates = 120;
  return cfg;
}

struct WorldSetup {
  std::unique_ptr<datagen::World> world;
  std::unique_ptr<datagen::WorldResources> resources;
  double generate_s = 0;
  double resources_s = 0;
};

WorldSetup SetUpWorld(const datagen::WorldConfig& cfg, obs::Tracer* tracer) {
  WorldSetup s;
  {
    obs::ScopedSpan span(tracer, "datagen.generate");
    s.generate_s = TimeScaled([&] {
                     s.world = std::make_unique<datagen::World>(
                         datagen::World::Generate(cfg));
                   }).scaled_s;
  }
  {
    obs::ScopedSpan span(tracer, "datagen.resources");
    s.resources_s = TimeScaled([&] {
                      s.resources = std::make_unique<datagen::WorldResources>(
                          *s.world, datagen::ResourcesConfig{});
                    }).scaled_s;
  }
  return s;
}

/// Number of set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// The process-wide observer obs_report attaches for its profiled build.
struct ProfiledObserver {
  obs::Tracer tracer;
  obs::Registry registry;
  obs::prof::FlightRecorder recorder{2048};
  obs::prof::LockContentionMetrics lock_metrics{&registry};
  std::optional<ScopedLockStatsSink> lock_sink;
  std::optional<obs::prof::StageProfiler> stage_profiler;
  obs::prof::CpuProfiler cpu_profiler;

  ProfiledObserver() {
    tracer.SetSpanListener(obs::prof::MakeSpanFlightListener(&recorder));
    lock_sink.emplace(&lock_metrics);
    obs::prof::SetHeapTrackingEnabled(true);
  }
  ~ProfiledObserver() {
    if (cpu_profiler.running()) (void)cpu_profiler.Stop();
    obs::prof::SetHeapTrackingEnabled(false);
  }
};

/// Heap hook cost per new/delete pair with tracking on, per thread, with
/// `threads` threads allocating concurrently.
double HeapHookNsPerPair([[maybe_unused]] int threads) {
#if defined(PERFBENCH_PROFILED)
  constexpr int kPairs = 200000;
  obs::prof::ScopedHeapTracking tracking;
  std::vector<double> per_thread(static_cast<size_t>(threads), 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      auto t0 = Clock::now();
      for (int i = 0; i < kPairs; ++i) obs::prof::HeapProbeAlloc(64);
      per_thread[static_cast<size_t>(t)] =
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count() /
          kPairs;
    });
  }
  for (auto& th : pool) th.join();
  return Median(per_thread);
#else
  return std::nan("");
#endif
}

struct BuildPass {
  std::vector<double> build_s;      // speed-scaled
  std::vector<double> raw_build_s;  // as measured
  std::vector<double> cpu_s;
  std::vector<pipeline::GoldComparison> quality;
  std::vector<std::string> fingerprints;
};

/// One Build of the world, with its checks, fingerprint and quality.
void RunOneBuild(const WorldSetup& setup, pipeline::PipelineConfig cfg,
                 const Options& opts, obs::Tracer* bench_tracer,
                 BuildPass* pass, Outcome* out) {
  obs::ScopedSpan span(bench_tracer, "bench.build");
  pipeline::AliCoCoBuilder builder(setup.world.get(), setup.resources.get(),
                                   cfg);
  pipeline::BuildReport report;
  std::optional<Result<kg::ConceptNet>> built;
  double cpu = 0;
  Timed wall = TimeScaled([&] {
    double cpu0 = ProcessCpuSeconds();
    built.emplace(builder.Build(&report));
    cpu = ProcessCpuSeconds() - cpu0;
  }, BuilderWorkers());
  // Build's last stage runs kg::Validator (validate_output is on) and
  // turns any issue into an error.
  Result<kg::ConceptNet>& net = *built;
  if (!net.ok()) {
    out->Check(false, "Build failed: " + net.status().ToString());
    return;
  }
  out->Check(report.item_ec_links > 0, "Build: empty item-ec layer");
  pass->build_s.push_back(wall.scaled_s);
  pass->raw_build_s.push_back(wall.raw_s);
  pass->cpu_s.push_back(cpu);
  {
    obs::ScopedSpan q(bench_tracer, "pipeline.compare_to_gold");
    pass->quality.push_back(
        pipeline::AliCoCoBuilder::CompareToGold(*net, *setup.world));
  }
  obs::ScopedSpan fp(bench_tracer, "kg.save");
  std::string path = opts.workdir + "/net_" +
                     std::to_string(static_cast<long>(getpid())) + ".txt";
  Status saved = kg::SaveConceptNet(*net, path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  out->Check(saved.ok() && !bytes.str().empty(),
             "SaveConceptNet: " + saved.ToString());
  pass->fingerprints.push_back(Hex(Fnv1a(bytes.str())));
}

void ReportFingerprints(const std::vector<std::string>& fps, Outcome* out) {
  std::string joined;
  for (const auto& fp : fps) joined += (joined.empty() ? "" : ",") + fp;
  out->Info("net_fingerprints", joined);
  bool agree = !fps.empty() &&
               std::all_of(fps.begin(), fps.end(),
                           [&](const std::string& f) { return f == fps[0]; });
  out->Info("net_fingerprints_agree", agree ? "yes" : "no");
}

/// The five gold-comparison figures (detail output) and `quality`, their
/// geometric mean: a relative drop of x in any one of them lowers it by
/// about x/5, so the smallest figure (item_link_recall) counts as much as
/// the largest.
void ReportQuality(const BuildPass& pass, Outcome* out) {
  auto med = [&](double pipeline::GoldComparison::*field) {
    std::vector<double> v;
    for (const auto& q : pass.quality) v.push_back(q.*field);
    return Median(v);
  };
  using GC = pipeline::GoldComparison;
  double log_sum = 0;
  for (auto [name, field] :
       {std::pair{"primitive_recall", &GC::primitive_recall},
        std::pair{"isa_precision", &GC::isa_precision},
        std::pair{"ec_precision", &GC::ec_precision},
        std::pair{"item_link_precision", &GC::item_link_precision},
        std::pair{"item_link_recall", &GC::item_link_recall}}) {
    double v = med(field);
    out->Set(name, v, "ratio");
    log_sum += std::log(v);
  }
  out->Set("quality", std::exp(log_sum / 5), "ratio");
}

/// Runs a layer probe: a layer this workload does not exercise, measured on
/// the bench world. Its metrics go to `out`; the checks of its operations
/// are kept apart, in the detail output as probe.<layer>.attempted/failed,
/// because they judge the bench world, not the workload's own output.
template <typename Fn>
void RunProbe(const std::string& layer, Outcome* out, Fn&& probe) {
  Outcome local;
  probe(&local);
  for (const auto& [name, m] : local.metrics) out->metrics[name] = m;
  out->InfoNum("probe." + layer + ".attempted",
               static_cast<double>(local.attempted));
  out->InfoNum("probe." + layer + ".failed",
               static_cast<double>(local.failed));
  if (!local.failures.empty()) {
    out->Info("probe." + layer + ".first_failure", local.failures.front());
  }
}

/// Resident-set high-water mark of the process, in MB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// pipeline / common / matching-histogram layer metrics of traced builds:
/// `spans` and `reg` are what the builds' tracer and registry recorded,
/// `pass` their timings, `builds` how many builds fed the counters.
void ReportPipelineLayer(const obs::Registry& reg,
                         const std::vector<obs::SpanRecord>& spans,
                         const BuildPass& pass, double builds, Outcome* out) {
  out->Set("build.cpu_s", Median(pass.cpu_s), "s");
  {
    std::vector<double> ratio;
    for (size_t i = 0; i < pass.cpu_s.size(); ++i) {
      ratio.push_back(pass.cpu_s[i] / pass.raw_build_s[i]);
    }
    out->Set("build.cpu_per_wall", Median(ratio), "ratio");
  }
  std::map<std::string, double> wall = MedianMsByName(spans);
  for (const char* stage :
       {"taxonomy_schema", "seed_concepts", "mining", "hypernym_discovery",
        "ec_concepts", "concept_tagging", "item_association",
        "relation_inference", "validation"}) {
    out->Set(std::string("pipeline.") + stage + ".wall_ms",
             wall[std::string("pipeline.") + stage], "ms");
  }
  out->Set("pipeline.mining.epoch.wall_ms", wall["pipeline.mining.epoch"],
           "ms");
  // Counters accumulate over the builds; ratios are unaffected.
  auto counter = [&](const std::string& name) {
    const obs::Counter* c = reg.FindCounter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  auto ratio = [&](const std::string& num, const std::string& den) {
    double d = counter(den);
    return d > 0 ? counter(num) / d : 0.0;
  };
  out->Set("pipeline.mining.accept_ratio",
           ratio("pipeline.mining.accepted", "pipeline.mining.candidates"),
           "ratio");
  out->Set("pipeline.ec_concepts.accept_ratio",
           ratio("pipeline.ec_concepts.accepted",
                 "pipeline.ec_concepts.candidates"),
           "ratio");
  double above = counter("pipeline.item_association.edges_above_threshold");
  double below = counter("pipeline.item_association.edges_below_threshold");
  out->Set("pipeline.item_association.accept_ratio",
           above + below > 0 ? above / (above + below) : 0, "ratio");
  const obs::Gauge* thr =
      reg.FindGauge("pipeline.item_association.assoc_threshold");
  out->Set("pipeline.item_association.assoc_threshold",
           thr != nullptr ? thr->value() : 0, "score");
  out->Set("pipeline.item_association.item_ec_links",
           counter("pipeline.item_association.item_ec_links") / builds,
           "count");
  out->Set("pipeline.worker_pool.tasks_completed",
           counter("pipeline.worker_pool.tasks_completed") / builds, "count");
  auto hist_q = [&](const std::string& name, double q) {
    const obs::Histogram* h = reg.FindHistogram(name);
    return h != nullptr ? h->Quantile(q) : 0.0;
  };
  out->Set("pipeline.worker_pool.queue_wait_us.p50",
           hist_q("pipeline.worker_pool.queue_wait_us", 0.5), "us");
  out->Set("pipeline.worker_pool.queue_wait_us.p99",
           hist_q("pipeline.worker_pool.queue_wait_us", 0.99), "us");
  out->Set("pipeline.worker_pool.task_run_us.p50",
           hist_q("pipeline.worker_pool.task_run_us", 0.5), "us");
  out->Set("matching.knowledge_matcher.score_latency_us.p50",
           hist_q("matching.knowledge_matcher.score_latency_us", 0.5), "us");
}

/// The pipeline layer on a workload that does not build: one traced Build
/// of the bench world `setup`.
void ProbePipeline(const WorldSetup& setup, const Options& opts,
                   Outcome* out) {
  obs::Tracer tracer;
  obs::Registry registry;
  pipeline::PipelineConfig cfg = ObsReportStageConfig();
  cfg.tracer = &tracer;
  cfg.metrics = &registry;
  BuildPass pass;
  RunOneBuild(setup, cfg, opts, &tracer, &pass, out);
  if (pass.build_s.empty()) return;
  ReportPipelineLayer(registry, tracer.Records(), pass, 1, out);
}

void ProbeMatching(const Options& opts, Outcome* out);
void ProbeServing(const datagen::World& world, const Options& opts,
                  Outcome* out);

void RunBuildWorkload(const Options& opts, bool profiled, Outcome* out) {
#if defined(PERFBENCH_PROFILED)
  if (!profiled || !obs::prof::HeapHookLinked()) {
    out->Check(false, "perfbench_profiled runs only build_profiled");
    return;
  }
#else
  if (profiled) {
    out->Check(false, "build_profiled needs the heap-hooked binary");
    return;
  }
#endif
  // The observer of the profiled workload is up before the world is
  // generated and lives across every build of the run, as in obs_report.
  // Benchmark-side spans go to its tracer so they nest with the pipeline's.
  std::unique_ptr<ProfiledObserver> observer;
  if (profiled) observer = std::make_unique<ProfiledObserver>();
  obs::Tracer own_tracer;
  obs::Tracer& bench_tracer = profiled ? observer->tracer : own_tracer;
  obs::Tracer* tr = opts.trace ? &bench_tracer : nullptr;

  // Set-up: World::Generate + WorldResources, kSetups times; the last one
  // is kept for the builds.
  std::vector<double> setup_s, generate_s, resources_s;
  WorldSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = WorldSetup{};
    setup = SetUpWorld(WorldConfigFor(opts), tr);
    setup_s.push_back(setup.generate_s + setup.resources_s);
    generate_s.push_back(setup.generate_s);
    resources_s.push_back(setup.resources_s);
  }

  auto config_for = [&](bool traced, obs::Registry* registry,
                        obs::Tracer* tracer) {
    pipeline::PipelineConfig cfg = ObsReportStageConfig();
    if (profiled) {
      cfg.tracer = &observer->tracer;
      cfg.metrics = &observer->registry;
      cfg.stage_profiler = &*observer->stage_profiler;
    } else if (traced) {
      cfg.tracer = tracer;
      cfg.metrics = registry;
    }
    return cfg;
  };

  if (profiled) {
    observer->stage_profiler.emplace(&observer->lock_metrics,
                                     &observer->registry,
                                     "pipeline.worker_pool.queue_wait_us");
    obs::prof::CpuProfilerOptions prof_opts;
    Status st = observer->cpu_profiler.Start(prof_opts);
    out->Check(st.ok(), "CpuProfiler::Start: " + st.ToString());
  }

  // Measured builds. With --trace 1 the time is split between an untraced
  // pass and a traced pass of at least one build each.
  BuildPass plain, traced;
  obs::Registry trace_registry;
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  auto loop = [&](bool traced_pass, BuildPass* pass) {
    auto start = Clock::now();
    do {
      obs::Tracer* pipeline_tracer = traced_pass ? &bench_tracer : nullptr;
      RunOneBuild(setup,
                  config_for(traced_pass, &trace_registry, pipeline_tracer),
                  opts, traced_pass ? &bench_tracer : nullptr, pass, out);
    } while (SecondsSince(start) < budget);
  };
  loop(false, &plain);
  const double peak_rss_mb = PeakRssMb();
  if (opts.trace) loop(true, &traced);

  std::optional<obs::prof::CpuProfile> cpu_profile;
  if (profiled) {
    Status st = observer->cpu_profiler.Stop();
    out->Check(st.ok(), "CpuProfiler::Stop: " + st.ToString());
    cpu_profile = observer->cpu_profiler.TakeProfile();
  }

  std::vector<std::string> fingerprints = plain.fingerprints;
  fingerprints.insert(fingerprints.end(), traced.fingerprints.begin(),
                      traced.fingerprints.end());
  ReportFingerprints(fingerprints, out);
  out->InfoNum("builds", static_cast<double>(fingerprints.size()));
  out->Info("build_s_each", JoinNumbers(plain.build_s));
  out->Info("raw.build_s_each", JoinNumbers(plain.raw_build_s));
  out->Info("world", profiled ? "bench (profiled build)" : "bench");

  out->Set("setup_s", Median(setup_s), "s");
  out->Set("build_s", Median(plain.build_s), "s");
  out->Set("latency_p50_ms", Median(plain.build_s) * 1000, "ms");
  ReportQuality(plain, out);
  if (!opts.trace) return;

  // ---- per-layer metrics (traced run) ----
  out->Set("process.peak_rss_mb", peak_rss_mb, "MB");
  out->Set("datagen.generate_s", Median(generate_s), "s");
  out->Set("datagen.resources_s", Median(resources_s), "s");
  {
    std::vector<double> ratio;
    for (size_t i = 0; i < plain.cpu_s.size(); ++i) {
      ratio.push_back(plain.cpu_s[i] / plain.raw_build_s[i]);
    }
    out->Set("process.cpu_per_wall", Median(ratio), "ratio");
  }
  out->Set("trace.overhead_pct",
           (Median(traced.build_s) / Median(plain.build_s) - 1) * 100, "%");

  std::vector<obs::SpanRecord> spans = bench_tracer.Records();
  for (const auto& [layer, ms] : SelfMsByLayer(spans)) {
    out->Set("self." + layer + "_ms", ms, "ms");
  }
  // The profiled workload's observer records every build; the plain one's
  // registry only the traced builds.
  const double traced_builds = static_cast<double>(
      traced.build_s.size() + (profiled ? plain.build_s.size() : 0));
  ReportPipelineLayer(profiled ? observer->registry : trace_registry, spans,
                      profiled ? plain : traced, traced_builds, out);

  if (profiled) {
    // StageProfiler attribution of the heavy stages (medians over the
    // run's builds) and CPU samples.
    std::vector<obs::prof::StageAttribution> stages =
        observer->stage_profiler->TakeStages();
    for (const char* stage : {"mining", "ec_concepts", "item_association"}) {
      std::vector<double> cpu_ms, allocs, alloc_mb;
      for (const auto& s : stages) {
        if (s.name != stage) continue;
        cpu_ms.push_back(s.cpu_ms);
        allocs.push_back(static_cast<double>(s.allocs));
        alloc_mb.push_back(s.alloc_mb);
      }
      out->Set(std::string("prof.") + stage + ".cpu_ms", Median(cpu_ms),
               "ms");
      out->Set(std::string("prof.") + stage + ".allocs", Median(allocs),
               "count");
      out->Set(std::string("prof.") + stage + ".alloc_mb", Median(alloc_mb),
               "MB");
    }
    out->Set("prof.cpu_samples",
             static_cast<double>(
                 cpu_profile.has_value() ? cpu_profile->samples : 0),
             "count");
  }
  RunProbe("matching", out, [&](Outcome* o) { ProbeMatching(opts, o); });
  RunProbe("serving", out,
           [&](Outcome* o) { ProbeServing(*setup.world, opts, o); });
}

// ---------------------------------------------------------------------------
// serve

/// The serving world: the bench world with a catalog 10x larger.
datagen::WorldConfig ServeWorldConfig(const Options& opts) {
  datagen::WorldConfig cfg = WorldConfigFor(opts);
  cfg.num_items *= 10;
  return cfg;
}

struct ServeSetup {
  std::unique_ptr<datagen::World> owned_world;  // the serve workload's own
  const datagen::World* world = nullptr;
  std::unique_ptr<kg::ConceptNet> net;  // the reloaded gold net
  std::vector<apps::RelevanceQuery> queries;
  std::vector<std::string> questions;
  double search_auc = 0;  // pooled AUC of every query, isA expansion on
  double generate_s = 0;
  double load_ms = 0;
};

/// Deployment path: persists `world`'s gold net, serves the reloaded copy
/// and draws the request pools from the world.
void PrepareServing(const datagen::World& world, const Options& opts,
                    obs::Tracer* tracer, ServeSetup* s, Outcome* out) {
  s->world = &world;
  std::string path = opts.workdir + "/serve_net_" +
                     std::to_string(static_cast<long>(getpid())) + ".txt";
  {
    obs::ScopedSpan span(tracer, "kg.save");
    Status st = kg::SaveConceptNet(world.net(), path);
    out->Check(st.ok(), "SaveConceptNet: " + st.ToString());
  }
  {
    obs::ScopedSpan span(tracer, "kg.load");
    std::optional<Result<kg::ConceptNet>> loaded;
    s->load_ms =
        TimeScaled([&] { loaded.emplace(kg::LoadConceptNet(path)); })
            .scaled_s *
        1000;
    out->Check(loaded->ok(),
               "LoadConceptNet: " + loaded->status().ToString());
    if (loaded->ok()) {
      s->net = std::make_unique<kg::ConceptNet>(std::move(**loaded));
    }
  }
  std::remove(path.c_str());
  if (s->net == nullptr) return;
  {
    obs::ScopedSpan span(tracer, "apps.build_queries");
    // The query pool is the world's, like its users and questions; the
    // run's seed draws the order the client sends them in.
    apps::SearchRelevance builder(s->net.get(), nullptr);
    s->queries = builder.BuildQueries(world, 200, 40, world.config().seed);
    s->search_auc = builder.Evaluate(s->queries, true).auc;
  }
  for (const auto& q : world.needs_queries()) {
    s->questions.push_back(text::JoinTokens(q));
  }
}

ServeSetup SetUpServe(const Options& opts, obs::Tracer* tracer,
                      Outcome* out) {
  ServeSetup s;
  {
    obs::ScopedSpan span(tracer, "datagen.generate");
    s.generate_s = TimeScaled([&] {
                     s.owned_world = std::make_unique<datagen::World>(
                         datagen::World::Generate(ServeWorldConfig(opts)));
                   }).scaled_s;
  }
  PrepareServing(*s.owned_world, opts, tracer, &s, out);
  return s;
}

struct ServeSamples {
  std::vector<double> search_us, recommend_us, qa_us;

  void Append(const ServeSamples& group, double scale) {
    for (auto [src, dst] : {std::pair{&group.search_us, &search_us},
                            std::pair{&group.recommend_us, &recommend_us},
                            std::pair{&group.qa_us, &qa_us}}) {
      for (double x : *src) dst->push_back(x * scale);
    }
  }
};

/// Closed loop, one client: search, recommend and QA requests interleaved
/// round-robin over seed-shuffled request streams, for `seconds` and at
/// least `min_per_type` requests of each type. A reference pass follows
/// every group of kGroupRounds rounds (~15 ms); each group's latencies are
/// speed-scaled by the median of the kRefWindow passes around it, which
/// follows the host's drift (seconds) without the noise of single passes.
/// `raw` receives the latencies as measured.
constexpr size_t kGroupRounds = 32;
constexpr size_t kRefWindow = 9;

ServeSamples ServeLoop(const ServeSetup& s, const Options& opts,
                       double seconds, size_t min_per_type,
                       obs::Tracer* tracer, ServeSamples* raw,
                       Outcome* out) {
  // Deployed construction: the apps report into the default registry.
  apps::SearchRelevance search(s.net.get());
  apps::CognitiveRecommender recommender(s.net.get());
  apps::NeedsQuestionAnswerer qa(s.net.get());

  Rng rng(opts.seed);
  std::vector<size_t> q_order(s.queries.size()), u_order, n_order;
  for (size_t i = 0; i < q_order.size(); ++i) q_order[i] = i;
  for (size_t i = 0; i < s.world->user_histories().size(); ++i) {
    if (!s.world->user_histories()[i].clicked.empty()) u_order.push_back(i);
  }
  for (size_t i = 0; i < s.questions.size(); ++i) n_order.push_back(i);
  rng.Shuffle(&q_order);
  rng.Shuffle(&u_order);
  rng.Shuffle(&n_order);

  std::vector<ServeSamples> groups(1);
  std::vector<double> refs = {RefKernelUs()};  // refs[g + 1] follows g
  std::vector<double> unstolen;  // share of each group's wall not stolen
  auto start = Clock::now();
  auto group_start = start;
  double group_steal = StealSeconds();
  for (size_t r = 0;; ++r) {
    if (r % kGroupRounds == 0 && r > 0) {
      double wall = SecondsSince(group_start);
      unstolen.push_back(
          std::max(0.5, 1 - (StealSeconds() - group_steal) / wall));
      refs.push_back(RefKernelUs());
      group_start = Clock::now();
      group_steal = StealSeconds();
      if (groups.size() * kGroupRounds >= min_per_type &&
          SecondsSince(start) >= seconds) {
        break;
      }
      groups.emplace_back();
    }
    ServeSamples& group = groups.back();
    {
      const apps::RelevanceQuery& q = s.queries[q_order[r % q_order.size()]];
      obs::ScopedSpan span(tracer, "apps.search");
      auto t0 = Clock::now();
      apps::RelevanceReport rep = search.Evaluate({q}, true);
      group.search_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      out->Check(rep.bad_cases == 0 && rep.judged_pairs == q.items.size(),
                 "search '" + q.query + "': " +
                     std::to_string(rep.bad_cases) +
                     " gold-relevant candidate(s) scored 0");
    }
    {
      const datagen::UserHistory& user =
          s.world->user_histories()[u_order[r % u_order.size()]];
      obs::ScopedSpan span(tracer, "apps.recommend");
      auto t0 = Clock::now();
      auto cards = recommender.Recommend(user, 3, 4);
      group.recommend_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      size_t items = 0;
      for (const auto& c : cards) items += c.items.size();
      out->Check(!cards.empty() && items > 0, "recommend: empty cards");
    }
    {
      const std::string& question = s.questions[n_order[r % n_order.size()]];
      obs::ScopedSpan span(tracer, "apps.qa");
      auto t0 = Clock::now();
      std::optional<apps::NeedsAnswer> ans = qa.Answer(question);
      group.qa_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      out->Check(ans.has_value(), "qa: unanswered '" + question + "'");
    }
  }
  ServeSamples samples;
  for (size_t g = 0; g < groups.size(); ++g) {
    size_t lo = g >= kRefWindow / 2 ? g - kRefWindow / 2 : 0;
    size_t hi = std::min(refs.size(), lo + kRefWindow);
    std::vector<double> window(refs.begin() + static_cast<long>(lo),
                               refs.begin() + static_cast<long>(hi));
    samples.Append(groups[g], SpeedScale(Median(window)) * unstolen[g]);
    raw->Append(groups[g], 1.0);
  }
  return samples;
}

/// kg / text / obs costs on the serve requests' own inputs.
void ServeLayerMicros(const ServeSetup& s, Outcome* out) {
  const kg::ConceptNet& net = *s.net;
  constexpr int kPasses = 7;
  // Search: hypernym closure of every candidate item's primitives.
  std::vector<kg::ConceptId> prims;
  for (const auto& q : s.queries) {
    for (kg::ItemId item : q.items) {
      for (kg::ConceptId p : net.PrimitivesForItem(item)) prims.push_back(p);
    }
  }
  out->Set("kg.hypernym_closure_ns",
           NsPerCall(prims.size(), kPasses,
                     [&] {
                       for (kg::ConceptId p : prims) {
                         g_sink += net.HypernymClosure(p).size();
                       }
                     }),
           "ns");
  // Recommend: item -> concepts of every clicked item; concept -> items of
  // every concept those hit.
  std::vector<kg::ItemId> clicked;
  std::vector<kg::EcConceptId> concepts;
  for (const auto& u : s.world->user_histories()) {
    for (kg::ItemId item : u.clicked) {
      clicked.push_back(item);
      for (kg::EcConceptId ec : net.EcConceptsForItem(item)) {
        concepts.push_back(ec);
      }
    }
  }
  out->Set("kg.ec_concepts_for_item_ns",
           NsPerCall(clicked.size(), kPasses,
                     [&] {
                       for (kg::ItemId i : clicked) {
                         g_sink += net.EcConceptsForItem(i).size();
                       }
                     }),
           "ns");
  out->Set("kg.items_for_ec_ns",
           NsPerCall(concepts.size(), kPasses,
                     [&] {
                       for (kg::EcConceptId ec : concepts) {
                         g_sink += net.ItemsForEc(ec).size();
                       }
                     }),
           "ns");
  // QA: the token spans (up to 6 tokens) the answerer looks up.
  std::vector<std::string> spans;
  for (const auto& question : s.questions) {
    std::vector<std::string> tokens = text::Tokenize(question);
    for (size_t i = 0; i < tokens.size(); ++i) {
      std::string key;
      for (size_t len = 1; len <= 6 && i + len <= tokens.size(); ++len) {
        if (len > 1) key += ' ';
        key += tokens[i + len - 1];
        spans.push_back(key);
      }
    }
  }
  out->Set("kg.find_ec_concept_ns",
           NsPerCall(spans.size(), kPasses,
                     [&] {
                       for (const auto& k : spans) {
                         g_sink += net.FindEcConcept(k).has_value();
                       }
                     }),
           "ns");
  out->Set("kg.find_primitive_ns",
           NsPerCall(spans.size(), kPasses,
                     [&] {
                       for (const auto& k : spans) {
                         g_sink += net.FindPrimitive(k).size();
                       }
                     }),
           "ns");
  out->Set("text.tokenize_ns",
           NsPerCall(s.questions.size(), kPasses,
                     [&] {
                       for (const auto& q : s.questions) {
                         g_sink += text::Tokenize(q).size();
                       }
                     }),
           "ns");
  obs::Histogram hist;
  constexpr size_t kObserves = 200000;
  out->Set("obs.histogram_observe_ns",
           NsPerCall(kObserves, kPasses,
                     [&] {
                       for (size_t i = 0; i < kObserves; ++i) {
                         hist.Observe(static_cast<double>(i % 977));
                       }
                     }),
           "ns");
}

/// apps latencies of a serve loop plus the kg / text / obs micro-costs on
/// its inputs.
void ReportServingLayer(const ServeSetup& s, const ServeSamples& samples,
                        double load_ms, Outcome* out) {
  out->Set("kg.load_ms", load_ms, "ms");
  out->Set("apps.search_us.p50", Quantile(samples.search_us, 0.5), "us");
  out->Set("apps.search_us.p99", Quantile(samples.search_us, 0.99), "us");
  out->Set("apps.recommend_us.p50", Quantile(samples.recommend_us, 0.5),
           "us");
  out->Set("apps.recommend_us.p99", Quantile(samples.recommend_us, 0.99),
           "us");
  out->Set("apps.qa_us.p50", Quantile(samples.qa_us, 0.5), "us");
  out->Set("apps.qa_us.p99", Quantile(samples.qa_us, 0.99), "us");
  ServeLayerMicros(s, out);
}

void RunServeWorkload(const Options& opts, Outcome* out) {
  obs::Tracer tracer;
  obs::Tracer* tr = opts.trace ? &tracer : nullptr;
  constexpr size_t kMinPerType = 1000;

  std::vector<double> setup_s, generate_s, load_ms;
  ServeSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = ServeSetup{};
    setup_s.push_back(
        TimeScaled([&] { setup = SetUpServe(opts, tr, out); }).scaled_s);
    generate_s.push_back(setup.generate_s);
    load_ms.push_back(setup.load_ms);
  }
  if (setup.net == nullptr || setup.queries.empty() ||
      setup.questions.empty()) {
    out->Check(false, "serve set-up produced no requests");
    return;
  }
  out->Info("world", "bench x10 catalog (gold net, saved and reloaded)");
  out->InfoNum("items", static_cast<double>(setup.net->num_items()));
  out->InfoNum("search_queries", static_cast<double>(setup.queries.size()));

  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  ServeSamples raw;
  const double cpu0 = ProcessCpuSeconds();
  const auto loop_start = Clock::now();
  ServeSamples plain = ServeLoop(setup, opts, budget, kMinPerType, nullptr,
                                 &raw, out);
  const double cpu_per_wall =
      (ProcessCpuSeconds() - cpu0) / SecondsSince(loop_start);
  const double peak_rss_mb = PeakRssMb();
  out->InfoNum("samples_per_type",
               static_cast<double>(plain.qa_us.size()));
  // One operation is a round: a search, a recommendation and an answer.
  std::vector<double> round_ms;
  for (size_t i = 0; i < plain.qa_us.size(); ++i) {
    round_ms.push_back(
        (plain.search_us[i] + plain.recommend_us[i] + plain.qa_us[i]) / 1000);
  }
  out->Set("setup_s", Median(setup_s), "s");
  out->Set("latency_p50_ms", Median(round_ms), "ms");
  out->Set("quality", setup.search_auc, "ratio");
  out->Set("search_p50_us", Quantile(plain.search_us, 0.5), "us");
  out->Set("search_p99_us", Quantile(plain.search_us, 0.99), "us");
  out->Set("recommend_p50_us", Quantile(plain.recommend_us, 0.5), "us");
  out->Set("recommend_p99_us", Quantile(plain.recommend_us, 0.99), "us");
  out->Set("qa_p50_us", Quantile(plain.qa_us, 0.5), "us");
  out->Set("qa_p99_us", Quantile(plain.qa_us, 0.99), "us");
  out->InfoNum("raw.search_p50_us", Quantile(raw.search_us, 0.5));
  out->InfoNum("raw.recommend_p50_us", Quantile(raw.recommend_us, 0.5));
  out->InfoNum("raw.qa_p50_us", Quantile(raw.qa_us, 0.5));
  if (!opts.trace) return;

  tracer.Drain();  // keep only the traced loop's spans for self times
  ServeSamples traced = ServeLoop(setup, opts, budget, kMinPerType, &tracer,
                                  &raw, out);
  auto mean = [](const ServeSamples& s) {
    double sum = 0;
    size_t n = 0;
    for (const auto* v : {&s.search_us, &s.recommend_us, &s.qa_us}) {
      for (double x : *v) sum += x;
      n += v->size();
    }
    return sum / static_cast<double>(std::max<size_t>(1, n));
  };
  out->Set("trace.overhead_pct", (mean(traced) / mean(plain) - 1) * 100, "%");
  for (const auto& [layer, ms] : SelfMsByLayer(tracer.Records())) {
    out->Set("self." + layer + "_ms", ms, "ms");
  }
  out->Set("process.cpu_per_wall", cpu_per_wall, "ratio");
  out->Set("process.peak_rss_mb", peak_rss_mb, "MB");
  out->Set("datagen.generate_s", Median(generate_s), "s");
  ReportServingLayer(setup, plain, Median(load_ms), out);
  // The pipeline and matching layers, on the bench world.
  WorldSetup bench = SetUpWorld(WorldConfigFor(opts), nullptr);
  RunProbe("pipeline", out,
           [&](Outcome* o) { ProbePipeline(bench, opts, o); });
  RunProbe("matching", out, [&](Outcome* o) { ProbeMatching(opts, o); });
}

/// The serving layers on a workload that does not serve: `world`'s gold
/// net, saved and reloaded, under a short closed loop.
void ProbeServing(const datagen::World& world, const Options& opts,
                  Outcome* out) {
  ServeSetup s;
  PrepareServing(world, opts, nullptr, &s, out);
  if (s.net == nullptr || s.queries.empty() || s.questions.empty()) {
    out->Check(false, "serving probe produced no requests");
    return;
  }
  ServeSamples raw;
  ServeSamples samples = ServeLoop(s, opts, 1.0, 300, nullptr, &raw, out);
  ReportServingLayer(s, samples, s.load_ms, out);
}

// ---------------------------------------------------------------------------
// match

struct MatchSetup {
  WorldSetup world;
  matching::MatchingDataset dataset;
  std::unique_ptr<matching::KnowledgeMatcher> matcher;
  double train_s = 0;
};

/// Stage 7's matcher over the world's gold net: the builder's knowledge
/// resources, obs_report's matcher config, the builder's dataset seed.
MatchSetup SetUpMatch(const Options& opts, obs::Tracer* tracer) {
  MatchSetup s;
  s.world = SetUpWorld(WorldConfigFor(opts), tracer);
  const datagen::World& world = *s.world.world;
  const datagen::WorldResources& res = *s.world.resources;
  const pipeline::PipelineConfig stage = ObsReportStageConfig();
  matching::KnowledgeResources know;
  know.pos_tagger = &world.pos_tagger();
  know.gloss_encoder = &res.gloss_encoder();
  know.gloss_lookup = [&res](const std::string& w) { return res.GlossOf(w); };
  know.concept_classes = [&world](const std::vector<std::string>& tokens) {
    std::vector<int> out;
    auto ec = world.net().FindEcConcept(JoinStrings(tokens, " "));
    if (ec.has_value()) {
      for (kg::ConceptId p : world.net().PrimitivesForEc(*ec)) {
        out.push_back(static_cast<int>(world.net().Get(p).cls.value));
      }
    }
    return out;
  };
  know.num_classes = static_cast<int>(world.net().taxonomy().size());
  matching::MatchingDatasetConfig md_cfg;
  md_cfg.seed = stage.seed ^ 0xAA;
  s.dataset = matching::BuildMatchingDataset(world, md_cfg);
  s.matcher = std::make_unique<matching::KnowledgeMatcher>(
      stage.matcher, know, &res.embeddings(), &res.vocab());
  obs::ScopedSpan span(tracer, "matching.train");
  s.train_s = TimeScaled([&] { s.matcher->Train(s.dataset); }).scaled_s;
  return s;
}

/// GEMM timings at the knowledge matcher's item-CNN shape: the title's
/// token windows (m x window*(embed+pos)) against the filter bank.
void NnKernelMicros(const MatchSetup& s, Outcome* out) {
  std::vector<double> lengths;
  for (const auto& item : s.world.world->net().items()) {
    lengths.push_back(static_cast<double>(item.title.size()));
  }
  const matching::KnowledgeMatcherConfig cfg =
      ObsReportStageConfig().matcher;
  const int m = static_cast<int>(Median(lengths));
  const int k = cfg.cnn_window * (cfg.base.embed_dim + cfg.pos_dim);
  const int n = cfg.cnn_filters;
  Rng rng(7);
  nn::Tensor x(m, k), w(n, k), y(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) x.At(i, j) = rng.UniformFloat(-1, 1);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) w.At(i, j) = rng.UniformFloat(-1, 1);
  }
  nn::quant::QuantizedTensor wq =
      nn::quant::QuantizedTensor::Quantize(w, nn::quant::QuantMode::kInt8);
  constexpr size_t kCalls = 20000;
  double fp32_ns = NsPerCall(kCalls, 7, [&] {
    for (size_t c = 0; c < kCalls; ++c) {
      nn::kernels::GemmTransBAccum(m, k, n, x.data(), w.data(), y.data());
    }
  });
  double int8_ns = NsPerCall(kCalls, 7, [&] {
    for (size_t c = 0; c < kCalls; ++c) nn::quant::GemmTransW(x, wq, &y);
  });
  g_sink += static_cast<uint64_t>(std::isfinite(y.At(0, 0)));
  const double flop = 2.0 * m * k * n;
  out->Set("nn.gemm_transb_us", fp32_ns / 1000, "us");
  out->Set("nn.gemm_transw_int8_us", int8_ns / 1000, "us");
  // GFLOP/s is computed from the shape, not counted by hardware.
  out->Set("nn.gemm_transb_gflops", flop / fp32_ns, "GFLOP/s");
  out->Set("nn.gemm_transw_int8_gflops", flop / int8_ns, "GFLOP/s");
  out->Info("nn_shape", std::to_string(m) + "x" + std::to_string(k) + "x" +
                            std::to_string(n));
}

struct MatchPass {
  std::vector<double> fp32_pairs_per_s, int8_pairs_per_s;  // speed-scaled
  std::vector<double> fp32_us, int8_us;                    // speed-scaled
  std::vector<double> raw_fp32_pairs_per_s, raw_int8_pairs_per_s;
  std::vector<double> round_ms;  // one page at fp32 + the same at int8
};

/// Concept pages in rounds: each round scores a block of pages at fp32,
/// then the same block at int8, each block between reference passes.
/// Runs for `seconds`.
MatchPass MatchLoop(MatchSetup* s, const std::vector<size_t>& order,
                    double seconds, obs::Tracer* tracer, Outcome* out) {
  constexpr size_t kPagesPerRound = 8;
  const auto& pages = s->dataset.rank_queries;
  MatchPass pass;
  size_t next = 0;
  auto start = Clock::now();
  while (SecondsSince(start) < seconds || pass.int8_pairs_per_s.empty()) {
    std::vector<size_t> block;
    for (size_t b = 0; b < kPagesPerRound; ++b) {
      block.push_back(order[next++ % order.size()]);
    }
    double ref_before = RefKernelUs();
    std::vector<double> round_ms(block.size(), 0);
    for (nn::quant::QuantMode mode :
         {nn::quant::QuantMode::kNone, nn::quant::QuantMode::kInt8}) {
      s->matcher->EnableQuantizedInference(mode);
      const bool int8 = mode == nn::quant::QuantMode::kInt8;
      std::vector<double> pair_us;
      size_t pairs = 0;
      obs::ScopedSpan span(tracer, int8 ? "matching.score_int8"
                                        : "matching.score");
      double steal0 = StealSeconds();
      auto t0 = Clock::now();
      std::vector<double> page_us;
      for (size_t p : block) {
        const matching::RankQuery& page = pages[p];
        page_us.push_back(0);
        for (size_t i = 0; i < page.item_tokens.size(); ++i) {
          auto c0 = Clock::now();
          double score = s->matcher->Score(page.concept_tokens,
                                           page.item_tokens[i],
                                           page.item_ids[i]);
          pair_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - c0)
                  .count());
          page_us.back() += pair_us.back();
          out->Check(std::isfinite(score) && score >= 0 && score <= 1,
                     "score out of [0,1]");
          ++pairs;
        }
      }
      double wall = SecondsSince(t0);
      double rate = static_cast<double>(pairs) / wall;
      double unstolen = std::max(0.5, 1 - (StealSeconds() - steal0) / wall);
      double ref_after = RefKernelUs();
      double scale = SpeedScale((ref_before + ref_after) / 2) * unstolen;
      ref_before = ref_after;
      (int8 ? pass.raw_int8_pairs_per_s : pass.raw_fp32_pairs_per_s)
          .push_back(rate);
      (int8 ? pass.int8_pairs_per_s : pass.fp32_pairs_per_s)
          .push_back(rate / scale);
      for (double us : pair_us) {
        (int8 ? pass.int8_us : pass.fp32_us).push_back(us * scale);
      }
      for (size_t b = 0; b < page_us.size(); ++b) {
        round_ms[b] += page_us[b] * scale / 1000;
      }
    }
    pass.round_ms.insert(pass.round_ms.end(), round_ms.begin(),
                         round_ms.end());
  }
  s->matcher->EnableQuantizedInference(nn::quant::QuantMode::kNone);
  return pass;
}

/// Per-pair scoring latencies of a match loop, the matcher's training
/// time and the nn kernels at its shape.
void ReportMatchingLayer(const MatchSetup& s, const MatchPass& pass,
                         double train_s, Outcome* out) {
  out->Set("matching.train_s", train_s, "s");
  out->Set("matching.score_us.p50", Quantile(pass.fp32_us, 0.5), "us");
  out->Set("matching.score_us.p99", Quantile(pass.fp32_us, 0.99), "us");
  out->Set("matching.score_int8_us.p50", Quantile(pass.int8_us, 0.5), "us");
  out->Set("matching.score_int8_us.p99", Quantile(pass.int8_us, 0.99), "us");
  NnKernelMicros(s, out);
}

void RunMatchWorkload(const Options& opts, Outcome* out) {
  obs::Tracer tracer;
  obs::Tracer* tr = opts.trace ? &tracer : nullptr;
  std::vector<double> setup_s, train_s, generate_s, resources_s;
  MatchSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = MatchSetup{};
    setup_s.push_back(
        TimeScaled([&] { setup = SetUpMatch(opts, tr); }).scaled_s);
    train_s.push_back(setup.train_s);
    generate_s.push_back(setup.world.generate_s);
    resources_s.push_back(setup.world.resources_s);
  }
  const auto& pages = setup.dataset.rank_queries;
  if (pages.empty()) {
    out->Check(false, "matching dataset has no concept pages");
    return;
  }
  std::vector<size_t> order(pages.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(opts.seed);
  rng.Shuffle(&order);

  // Quality: fp32 AUC on the test split; int8 must stay within 0.02.
  matching::MatcherMetrics fp32 =
      matching::EvaluateMatcher(*setup.matcher, setup.dataset);
  setup.matcher->EnableQuantizedInference(nn::quant::QuantMode::kInt8);
  matching::MatcherMetrics int8 =
      matching::EvaluateMatcher(*setup.matcher, setup.dataset);
  setup.matcher->EnableQuantizedInference(nn::quant::QuantMode::kNone);
  out->Check(std::fabs(int8.auc - fp32.auc) <= 0.02,
             "int8 AUC " + std::to_string(int8.auc) + " vs fp32 " +
                 std::to_string(fp32.auc));
  out->InfoNum("match_int8_auc", int8.auc);
  out->InfoNum("pages", static_cast<double>(pages.size()));

  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  const double cpu0 = ProcessCpuSeconds();
  const auto loop_start = Clock::now();
  MatchPass plain = MatchLoop(&setup, order, budget, nullptr, out);
  const double cpu_per_wall =
      (ProcessCpuSeconds() - cpu0) / SecondsSince(loop_start);
  const double peak_rss_mb = PeakRssMb();
  out->InfoNum("rounds", static_cast<double>(plain.fp32_pairs_per_s.size()));
  out->InfoNum("pages_scored", static_cast<double>(plain.round_ms.size()));
  out->Set("setup_s", Median(setup_s), "s");
  out->Set("latency_p50_ms", Median(plain.round_ms), "ms");
  out->Set("quality", fp32.auc, "ratio");
  out->Set("match_pairs_per_s", Median(plain.fp32_pairs_per_s), "1/s");
  out->Set("match_int8_pairs_per_s", Median(plain.int8_pairs_per_s), "1/s");
  out->Set("match_auc", fp32.auc, "ratio");
  out->InfoNum("raw.match_pairs_per_s", Median(plain.raw_fp32_pairs_per_s));
  out->InfoNum("raw.match_int8_pairs_per_s",
               Median(plain.raw_int8_pairs_per_s));
  if (!opts.trace) return;

  tracer.Drain();
  MatchPass traced = MatchLoop(&setup, order, budget, &tracer, out);
  out->Set("trace.overhead_pct",
           (Median(traced.round_ms) / Median(plain.round_ms) - 1) * 100, "%");
  for (const auto& [layer, ms] : SelfMsByLayer(tracer.Records())) {
    out->Set("self." + layer + "_ms", ms, "ms");
  }
  out->Set("process.cpu_per_wall", cpu_per_wall, "ratio");
  out->Set("process.peak_rss_mb", peak_rss_mb, "MB");
  out->Set("datagen.generate_s", Median(generate_s), "s");
  out->Set("datagen.resources_s", Median(resources_s), "s");
  ReportMatchingLayer(setup, plain, Median(train_s), out);
  // The pipeline and serving layers, on the same bench world.
  RunProbe("pipeline", out,
           [&](Outcome* o) { ProbePipeline(setup.world, opts, o); });
  RunProbe("serving", out,
           [&](Outcome* o) { ProbeServing(*setup.world.world, opts, o); });
}

/// The matching and nn layers on a workload that does not match: a matcher
/// trained on the bench world, scoring for one second.
void ProbeMatching(const Options& opts, Outcome* out) {
  MatchSetup s = SetUpMatch(opts, nullptr);
  if (s.dataset.rank_queries.empty()) {
    out->Check(false, "matching probe: no concept pages");
    return;
  }
  std::vector<size_t> order(s.dataset.rank_queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(opts.seed);
  rng.Shuffle(&order);
  MatchPass pass = MatchLoop(&s, order, 1.0, nullptr, out);
  ReportMatchingLayer(s, pass, s.train_s, out);
}

/// The heap hook's cost per new/delete pair, at 1 and at `nproc` threads.
/// run.py runs it in the heap-hooked binary for every --trace 1 result, so
/// the hook never enters the other workloads' process.
void RunHeapProbe(Outcome* out) {
  const double t1 = HeapHookNsPerPair(1);
  const double tn = HeapHookNsPerPair(BuilderWorkers());
  out->Check(std::isfinite(t1) && std::isfinite(tn),
             "heap_probe runs only in perfbench_profiled");
  out->Set("prof.heap_hook_ns.t1", t1, "ns");
  out->Set("prof.heap_hook_ns.tN", tn, "ns");
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (arg == "--workload") {
      opts->workload = v;
    } else if (arg == "--seed") {
      opts->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts->seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      opts->trace = v == "1";
    } else if (arg == "--workdir") {
      opts->workdir = v;
    } else if (arg == "--world-seed") {
      opts->world_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return !opts->workload.empty() && opts->seconds > 0;
}

void PrintOutcome(const Options& opts, const Outcome& out,
                  double stolen_share) {
  // The machine's speed now, in reference-kernel time (median of 21).
  std::vector<double> ref, serial;
  for (int i = 0; i < 21; ++i) {
    ref.push_back(RefKernelUs());
    serial.push_back(RefKernelUs(RefKind::kSerial));
  }
  const double ref_us = Median(ref);
  std::string s = "{\"workload\": \"" + JsonEscape(opts.workload) + "\"";
  s += ", \"seed\": " + std::to_string(opts.seed);
  s += ", \"trace\": " + std::string(opts.trace ? "1" : "0");
  s += ", \"correct\": " +
       std::string(out.failed == 0 && out.attempted > 0 ? "true" : "false");
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"host\": {\"nproc\": " +
       std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
       ", \"builder_workers\": " +
       std::to_string(BuilderWorkers()) +
       ", \"kernel_tier\": \"" + nn::kernels::ActiveKernelTier() +
       "\", \"compiler\": \"" + JsonEscape(std::string("g++ ") + __VERSION__) +
       "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
       "\", \"ref_kernel_us\": " + JsonNumber(ref_us) +
       ", \"ref_serial_kernel_us\": " + JsonNumber(Median(serial)) +
       ", \"stolen_share\": " + JsonNumber(stolen_share) + "}";
  s += ", \"info\": {";
  bool first = true;
  for (const auto& [k, v] : out.info) {
    s += (first ? "" : ", ") + std::string("\"") + k + "\": " + v;
    first = false;
  }
  s += "}, \"failures\": [";
  for (size_t i = 0; i < out.failures.size(); ++i) {
    s += (i ? ", \"" : "\"") + JsonEscape(out.failures[i]) + "\"";
  }
  s += "], \"metrics\": {";
  first = true;
  for (const auto& [name, m] : out.metrics) {
    s += (first ? "" : ", ") + std::string("\"") + name +
         "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--workdir DIR] [--world-seed N]\n");
    return 2;
  }
  Outcome out;
  const auto start = Clock::now();
  const double steal0 = StealSeconds();
  if (opts.workload == "build" || opts.workload == "build_profiled") {
    RunBuildWorkload(opts, opts.workload == "build_profiled", &out);
  } else if (opts.workload == "serve") {
    RunServeWorkload(opts, &out);
  } else if (opts.workload == "match") {
    RunMatchWorkload(opts, &out);
  } else if (opts.workload == "heap_probe") {
    RunHeapProbe(&out);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opts.workload.c_str());
    return 2;
  }
  // Share of the machine's vCPU time stolen during the run.
  const double stolen_share = (StealSeconds() - steal0) /
                              (SecondsSince(start) * BuilderWorkers());
  PrintOutcome(opts, out, stolen_share);
  return 0;
}
