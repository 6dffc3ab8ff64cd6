#include "obs/prof/bench_profile.h"

#include <time.h>

#include <chrono>

#include "common/string_util.h"
#include "obs/exporters.h"
#include "obs/json.h"

namespace alicoco::obs::prof {
namespace {

std::string FormatDouble(double v) { return StringPrintf("%.6g", v); }

uint64_t WallNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process CPU time (all threads), in microseconds. This is what makes
// cpu_ms attribute worker effort to the stage that scheduled it.
uint64_t ProcessCpuNowUs() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ULL;
#else
  return 0;
#endif
}

}  // namespace

const StageAttribution* BenchProfile::FindStage(
    const std::string& name) const {
  for (const StageAttribution& stage : stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

std::string BenchProfile::ToJson() const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"" + std::string(kSchemaId) + "\",\n";
  out += "  \"world\": \"" + JsonEscape(world) + "\",\n";
  out += "  \"total_ms\": " + FormatDouble(total_ms) + ",\n";
  out += "  \"total_cpu_ms\": " + FormatDouble(total_cpu_ms) + ",\n";
  out += "  \"peak_rss_mb\": " + FormatDouble(peak_rss_mb) + ",\n";
  out += std::string("  \"heap_tracked\": ") +
         (heap_tracked ? "true" : "false") + ",\n";
  out += "  \"stages\": [\n";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageAttribution& s = stages[i];
    out += "    {\"name\": \"" + JsonEscape(s.name) + "\"";
    out += ", \"wall_ms\": " + FormatDouble(s.wall_ms);
    out += ", \"cpu_ms\": " + FormatDouble(s.cpu_ms);
    out += ", \"lock_wait_ms\": " + FormatDouble(s.lock_wait_ms);
    out += ", \"queue_wait_ms\": " + FormatDouble(s.queue_wait_ms);
    out += ", \"alloc_mb\": " + FormatDouble(s.alloc_mb);
    out += ", \"allocs\": " + std::to_string(s.allocs);
    out += ", \"counters\": {";
    size_t n = 0;
    for (const auto& [key, value] : s.counters) {
      if (n++ != 0) out += ", ";
      out += "\"" + JsonEscape(key) + "\": " + FormatDouble(value);
    }
    out += "}}";
    if (i + 1 != stages.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"overhead\": {";
  out += "\"per_lock_ns\": " + FormatDouble(overhead.per_lock_ns);
  out += ", \"per_alloc_ns\": " + FormatDouble(overhead.per_alloc_ns);
  out += ", \"lock_ops\": " + std::to_string(overhead.lock_ops);
  out += ", \"alloc_ops\": " + std::to_string(overhead.alloc_ops);
  out += ", \"pct_of_total\": " + FormatDouble(overhead.pct_of_total);
  out += "}\n";
  out += "}\n";
  return out;
}

Result<BenchProfile> BenchProfile::FromJson(const std::string& text) {
  ALICOCO_ASSIGN_OR_RETURN(JsonValue root, ParseJson(text));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::Corruption("profile root must be a JSON object");
  }
  ALICOCO_ASSIGN_OR_RETURN(std::string schema,
                           JsonRequireString(root, "schema"));
  if (schema != kSchemaId) {
    return Status::Corruption("unknown profile schema '" + schema + "'");
  }
  const JsonValue* stages = root.Find("stages");
  if (stages == nullptr || stages->kind != JsonValue::Kind::kArray) {
    return Status::Corruption("missing 'stages' array");
  }
  // Plausibility caps: a real pipeline has a handful of stages and a few
  // counters each; a profile claiming thousands is corrupt input, not a
  // request to build an arbitrarily large report.
  constexpr size_t kMaxStages = 1024;
  constexpr size_t kMaxCountersPerStage = 4096;
  if (stages->array.size() > kMaxStages) {
    return Status::Corruption("implausible stage count in profile");
  }
  BenchProfile profile;
  ALICOCO_ASSIGN_OR_RETURN(profile.world, JsonRequireString(root, "world"));
  ALICOCO_ASSIGN_OR_RETURN(profile.total_ms,
                           JsonRequireNumber(root, "total_ms"));
  ALICOCO_ASSIGN_OR_RETURN(profile.total_cpu_ms,
                           JsonRequireNumber(root, "total_cpu_ms"));
  ALICOCO_ASSIGN_OR_RETURN(profile.peak_rss_mb,
                           JsonRequireNumber(root, "peak_rss_mb"));
  const JsonValue* tracked = root.Find("heap_tracked");
  profile.heap_tracked =
      tracked != nullptr && tracked->kind == JsonValue::Kind::kBool &&
      tracked->boolean;

  for (const JsonValue& entry : stages->array) {
    if (entry.kind != JsonValue::Kind::kObject) {
      return Status::Corruption("stage entries must be objects");
    }
    StageAttribution s;
    ALICOCO_ASSIGN_OR_RETURN(s.name, JsonRequireString(entry, "name"));
    ALICOCO_ASSIGN_OR_RETURN(s.wall_ms, JsonRequireNumber(entry, "wall_ms"));
    ALICOCO_ASSIGN_OR_RETURN(s.cpu_ms, JsonRequireNumber(entry, "cpu_ms"));
    ALICOCO_ASSIGN_OR_RETURN(s.lock_wait_ms,
                             JsonRequireNumber(entry, "lock_wait_ms"));
    ALICOCO_ASSIGN_OR_RETURN(s.queue_wait_ms,
                             JsonRequireNumber(entry, "queue_wait_ms"));
    ALICOCO_ASSIGN_OR_RETURN(s.alloc_mb, JsonRequireNumber(entry, "alloc_mb"));
    ALICOCO_ASSIGN_OR_RETURN(s.allocs, JsonRequireCount(entry, "allocs"));
    const JsonValue* counters = entry.Find("counters");
    if (counters != nullptr) {
      if (counters->kind != JsonValue::Kind::kObject) {
        return Status::Corruption("stage 'counters' must be an object");
      }
      if (counters->object.size() > kMaxCountersPerStage) {
        return Status::Corruption("implausible counter count in profile");
      }
      for (const auto& [key, value] : counters->object) {
        if (value.kind != JsonValue::Kind::kNumber) {
          return Status::Corruption("counter '" + key + "' must be numeric");
        }
        s.counters[key] = value.number;
      }
    }
    profile.stages.push_back(std::move(s));
  }

  const JsonValue* overhead = root.Find("overhead");
  if (overhead != nullptr) {
    if (overhead->kind != JsonValue::Kind::kObject) {
      return Status::Corruption("'overhead' must be an object");
    }
    ALICOCO_ASSIGN_OR_RETURN(profile.overhead.per_lock_ns,
                             JsonRequireNumber(*overhead, "per_lock_ns"));
    ALICOCO_ASSIGN_OR_RETURN(profile.overhead.per_alloc_ns,
                             JsonRequireNumber(*overhead, "per_alloc_ns"));
    ALICOCO_ASSIGN_OR_RETURN(profile.overhead.lock_ops,
                             JsonRequireCount(*overhead, "lock_ops"));
    ALICOCO_ASSIGN_OR_RETURN(profile.overhead.alloc_ops,
                             JsonRequireCount(*overhead, "alloc_ops"));
    ALICOCO_ASSIGN_OR_RETURN(profile.overhead.pct_of_total,
                             JsonRequireNumber(*overhead, "pct_of_total"));
  }
  return profile;
}

void AttachStageCounters(const Registry& registry,
                         std::vector<StageAttribution>* stages) {
  const std::vector<std::string> counter_names = registry.CounterNames();
  const std::vector<std::string> gauge_names = registry.GaugeNames();
  for (StageAttribution& stage : *stages) {
    const std::string prefix = "pipeline." + stage.name + ".";
    for (const std::string& name : counter_names) {
      if (!StartsWith(name, prefix)) continue;
      stage.counters[name.substr(prefix.size())] =
          static_cast<double>(registry.FindCounter(name)->value());
    }
    for (const std::string& name : gauge_names) {
      if (!StartsWith(name, prefix)) continue;
      stage.counters[name.substr(prefix.size())] =
          registry.FindGauge(name)->value();
    }
  }
}

std::vector<std::string> CompareBenchProfile(const BenchProfile& baseline,
                                             const BenchProfile& current,
                                             double max_ratio,
                                             double slack_ms) {
  std::vector<std::string> regressions;
  auto check = [&](const std::string& stage, const char* metric,
                   double base_ms, double cur_ms) {
    const double limit = base_ms * max_ratio + slack_ms;
    if (cur_ms <= limit) return;
    regressions.push_back(StringPrintf(
        "stage '%s' %s regressed: %.1fms > limit %.1fms (baseline %.1fms "
        "x %.2g + %.0fms slack)",
        stage.c_str(), metric, cur_ms, limit, base_ms, max_ratio, slack_ms));
  };
  for (const StageAttribution& base_stage : baseline.stages) {
    const StageAttribution* cur = current.FindStage(base_stage.name);
    if (cur == nullptr) {
      regressions.push_back("stage '" + base_stage.name +
                            "' missing from the current profile");
      continue;
    }
    check(base_stage.name, "wall", base_stage.wall_ms, cur->wall_ms);
    check(base_stage.name, "cpu", base_stage.cpu_ms, cur->cpu_ms);
  }
  return regressions;
}

StageProfiler::StageProfiler(const LockContentionMetrics* lock_metrics,
                             const Registry* registry,
                             std::string queue_wait_histogram)
    : lock_metrics_(lock_metrics),
      registry_(registry),
      queue_wait_histogram_(std::move(queue_wait_histogram)) {}

StageProfiler::Cut StageProfiler::TakeCut() const {
  Cut cut;
  cut.wall_us = WallNowUs();
  cut.cpu_us = ProcessCpuNowUs();
  if (lock_metrics_ != nullptr) {
    cut.lock_wait_us = lock_metrics_->total_wait_us();
    cut.cv_wait_us = lock_metrics_->total_cv_wait_us();
  }
  if (registry_ != nullptr && !queue_wait_histogram_.empty()) {
    const Histogram* h = registry_->FindHistogram(queue_wait_histogram_);
    if (h != nullptr) cut.queue_wait_us_sum = h->sum();
  }
  cut.heap = HeapCountersNow();
  return cut;
}

void StageProfiler::CloseStage(const Cut& now) {
  StageAttribution s;
  s.name = open_name_;
  s.wall_ms = static_cast<double>(now.wall_us - open_cut_.wall_us) / 1000.0;
  s.cpu_ms = static_cast<double>(now.cpu_us - open_cut_.cpu_us) / 1000.0;
  s.lock_wait_ms =
      static_cast<double>(now.lock_wait_us - open_cut_.lock_wait_us) / 1000.0;
  s.queue_wait_ms =
      (now.queue_wait_us_sum - open_cut_.queue_wait_us_sum) / 1000.0;
  s.alloc_mb =
      static_cast<double>(now.heap.alloc_bytes - open_cut_.heap.alloc_bytes) /
      (1024.0 * 1024.0);
  s.allocs = now.heap.allocs - open_cut_.heap.allocs;
  stages_.push_back(std::move(s));
  open_ = false;
}

void StageProfiler::BeginStage(const std::string& name) {
  Cut now = TakeCut();
  if (open_) CloseStage(now);
  open_ = true;
  open_name_ = name;
  open_cut_ = now;
}

void StageProfiler::Finish() {
  if (!open_) return;
  CloseStage(TakeCut());
}

std::vector<StageAttribution> StageProfiler::TakeStages() {
  return std::move(stages_);
}

}  // namespace alicoco::obs::prof
