#include "obs/prof/bench_profile.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/prof/heap_stats.h"

namespace alicoco::obs::prof {
namespace {

BenchProfile MakeProfile() {
  BenchProfile profile;
  profile.world = "medium";
  profile.total_ms = 1234.5;
  profile.total_cpu_ms = 2200.25;
  profile.peak_rss_mb = 512.5;
  profile.heap_tracked = true;
  StageAttribution mining;
  mining.name = "mining";
  mining.wall_ms = 700.5;
  mining.cpu_ms = 1400.25;
  mining.lock_wait_ms = 12.5;
  mining.queue_wait_ms = 90.75;
  mining.alloc_mb = 244.5;
  mining.allocs = 1234567;
  mining.counters["candidates"] = 321;
  mining.counters["audit_accuracy"] = 0.72;
  profile.stages.push_back(mining);
  StageAttribution tagging;
  tagging.name = "tagging";
  tagging.wall_ms = 534;
  tagging.cpu_ms = 800;
  profile.stages.push_back(tagging);
  profile.overhead.per_lock_ns = 0.5;
  profile.overhead.per_alloc_ns = 1.25;
  profile.overhead.lock_ops = 42;
  profile.overhead.alloc_ops = 10000000;
  profile.overhead.pct_of_total = 0.53;
  return profile;
}

TEST(BenchProfileTest, JsonRoundTripPreservesEveryField) {
  BenchProfile original = MakeProfile();
  Result<BenchProfile> parsed = BenchProfile::FromJson(original.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const BenchProfile& p = *parsed;
  EXPECT_EQ(p.world, "medium");
  EXPECT_DOUBLE_EQ(p.total_ms, 1234.5);
  EXPECT_DOUBLE_EQ(p.total_cpu_ms, 2200.25);
  EXPECT_DOUBLE_EQ(p.peak_rss_mb, 512.5);
  EXPECT_TRUE(p.heap_tracked);
  ASSERT_EQ(p.stages.size(), 2u);
  EXPECT_EQ(p.stages[0].name, "mining");
  EXPECT_DOUBLE_EQ(p.stages[0].wall_ms, 700.5);
  EXPECT_DOUBLE_EQ(p.stages[0].cpu_ms, 1400.25);
  EXPECT_DOUBLE_EQ(p.stages[0].lock_wait_ms, 12.5);
  EXPECT_DOUBLE_EQ(p.stages[0].queue_wait_ms, 90.75);
  EXPECT_DOUBLE_EQ(p.stages[0].alloc_mb, 244.5);
  EXPECT_EQ(p.stages[0].allocs, 1234567u);
  EXPECT_EQ(p.stages[1].name, "tagging");
  EXPECT_DOUBLE_EQ(p.overhead.per_lock_ns, 0.5);
  EXPECT_DOUBLE_EQ(p.overhead.per_alloc_ns, 1.25);
  EXPECT_EQ(p.overhead.lock_ops, 42u);
  EXPECT_EQ(p.overhead.alloc_ops, 10000000u);
  EXPECT_DOUBLE_EQ(p.overhead.pct_of_total, 0.53);
}

TEST(BenchProfileTest, CountersRoundTrip) {
  BenchProfile original = MakeProfile();
  original.stages[0].counters["accepted"] = 42;
  Result<BenchProfile> parsed = BenchProfile::FromJson(original.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->stages.size(), 2u);
  EXPECT_EQ(parsed->stages[0].counters,
            (std::map<std::string, double>{{"accepted", 42},
                                           {"audit_accuracy", 0.72},
                                           {"candidates", 321}}));
  EXPECT_TRUE(parsed->stages[1].counters.empty());
}

TEST(BenchProfileTest, FromJsonRejectsWrongSchema) {
  std::string text = MakeProfile().ToJson();
  size_t pos = text.find("alicoco.bench_profile.v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 24, "alicoco.bench_profile.v9");
  Result<BenchProfile> parsed = BenchProfile::FromJson(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(BenchProfileTest, FromJsonRejectsUnknownSchema) {
  Result<BenchProfile> parsed = BenchProfile::FromJson(
      R"({"schema": "somebody.elses.v9", "world": "x", "total_ms": 1,
          "total_cpu_ms": 1, "peak_rss_mb": 1, "stages": []})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("unknown profile schema"),
            std::string::npos);
}

TEST(BenchProfileTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(BenchProfile::FromJson("not json").ok());
  EXPECT_FALSE(BenchProfile::FromJson("[]").ok());
}

TEST(BenchProfileTest, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(BenchProfile::FromJson("").ok());
  EXPECT_FALSE(BenchProfile::FromJson("not json at all").ok());
  EXPECT_FALSE(BenchProfile::FromJson(R"({"schema": )").ok());
  EXPECT_FALSE(BenchProfile::FromJson(R"([1, 2, 3])").ok());
}

TEST(BenchProfileTest, FromJsonRequiresCoreFields) {
  const std::string head =
      R"({"schema": "alicoco.bench_profile.v1", "world": "b", )";
  const std::string totals =
      R"("total_ms": 1, "total_cpu_ms": 1, "peak_rss_mb": 1, )";
  const std::string stage_up_to_allocs =
      R"("stages": [{"name": "mining", "wall_ms": 1, "cpu_ms": 1,
                     "lock_wait_ms": 0, "queue_wait_ms": 0, "alloc_mb": 0,
                     "allocs": )";
  const std::string stage = stage_up_to_allocs + "0";
  auto parses = [](const std::string& text) {
    return BenchProfile::FromJson(text).ok();
  };
  EXPECT_TRUE(parses(head + totals + stage + "}]}"));
  // Missing total_ms.
  EXPECT_FALSE(parses(head + R"("total_cpu_ms": 1, "peak_rss_mb": 1, )" +
                      stage + "}]}"));
  // Missing stages array.
  EXPECT_FALSE(parses(
      head + R"("total_ms": 1, "total_cpu_ms": 1, "peak_rss_mb": 1})"));
  // Missing a stage's cpu_ms.
  EXPECT_FALSE(parses(head + totals +
                      R"("stages": [{"name": "mining", "wall_ms": 1,
                          "lock_wait_ms": 0, "queue_wait_ms": 0,
                          "alloc_mb": 0, "allocs": 0}]})"));
  // Counts must be non-negative and fit uint64_t.
  for (const char* allocs : {"-1", "1e30"}) {
    EXPECT_FALSE(parses(head + totals + stage_up_to_allocs + allocs + "}]}"))
        << allocs;
  }
  // Counters must be an object of numbers.
  EXPECT_FALSE(parses(head + totals + stage + R"(, "counters": [1]}]})"));
  EXPECT_FALSE(parses(head + totals + stage +
                      R"(, "counters": {"accepted": "many"}}]})"));
}

TEST(BenchProfileTest, FromJsonIgnoresUnknownKeys) {
  Result<BenchProfile> parsed = BenchProfile::FromJson(
      R"({"schema": "alicoco.bench_profile.v1", "world": "b",
          "total_ms": 2, "total_cpu_ms": 2, "peak_rss_mb": 1,
          "future_field": {"a": [true, null]},
          "stages": [{"name": "mining", "wall_ms": 1, "cpu_ms": 1,
                      "lock_wait_ms": 0, "queue_wait_ms": 0, "alloc_mb": 0,
                      "allocs": 0, "rank": 7, "counters": {}}]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->stages.size(), 1u);
  EXPECT_EQ(parsed->stages[0].name, "mining");
  EXPECT_TRUE(parsed->stages[0].counters.empty());
}

TEST(AttachStageCountersTest, TakesOnlyThisStagesCountersAndGauges) {
  Registry registry;
  registry.GetCounter("pipeline.mining.accepted")->Add(42);
  registry.GetCounter("pipeline.mining.candidates")->Add(321);
  registry.GetGauge("pipeline.validation.audit_accuracy")->Set(0.95);
  registry.GetCounter("pipeline.other_stage.ignored")->Add(7);
  registry.GetCounter("pipeline.miningx.ignored")->Add(8);
  registry.GetCounter("mining.accepted")->Add(9);
  registry.GetHistogram("pipeline.mining.epoch_us")->Observe(10);

  std::vector<StageAttribution> stages(2);
  stages[0].name = "mining";
  stages[1].name = "validation";
  AttachStageCounters(registry, &stages);
  EXPECT_EQ(stages[0].counters,
            (std::map<std::string, double>{{"accepted", 42},
                                           {"candidates", 321}}));
  EXPECT_EQ(stages[1].counters,
            (std::map<std::string, double>{{"audit_accuracy", 0.95}}));
}

TEST(BenchProfileTest, FindStageByName) {
  BenchProfile profile = MakeProfile();
  ASSERT_NE(profile.FindStage("tagging"), nullptr);
  EXPECT_DOUBLE_EQ(profile.FindStage("tagging")->cpu_ms, 800);
  EXPECT_EQ(profile.FindStage("absent"), nullptr);
}

TEST(BenchProfileTest, FindStageInASingleStageProfile) {
  BenchProfile profile;
  EXPECT_EQ(profile.FindStage("mining"), nullptr);
  StageAttribution stage;
  stage.name = "mining";
  profile.stages.push_back(stage);
  EXPECT_NE(profile.FindStage("mining"), nullptr);
  EXPECT_EQ(profile.FindStage("validation"), nullptr);
}

TEST(CompareBenchProfileTest, PassesWithinRatioAndSlack) {
  BenchProfile baseline = MakeProfile();
  BenchProfile current = MakeProfile();
  current.stages[0].cpu_ms = baseline.stages[0].cpu_ms * 1.2;  // within 1.5x
  EXPECT_TRUE(CompareBenchProfile(baseline, current, 1.5, 200.0).empty());
}

TEST(CompareBenchProfileTest, FlagsCpuRegression) {
  BenchProfile baseline = MakeProfile();
  BenchProfile current = MakeProfile();
  current.stages[0].cpu_ms = baseline.stages[0].cpu_ms * 3.0;
  std::vector<std::string> regressions =
      CompareBenchProfile(baseline, current, 1.5, 200.0);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("mining"), std::string::npos);
  EXPECT_NE(regressions[0].find("cpu regressed"), std::string::npos);
}

TEST(CompareBenchProfileTest, FlagsMissingStage) {
  BenchProfile baseline = MakeProfile();
  BenchProfile current = MakeProfile();
  current.stages.pop_back();  // drop "tagging"
  std::vector<std::string> regressions =
      CompareBenchProfile(baseline, current, 1.5, 200.0);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("'tagging' missing"), std::string::npos);
}

TEST(CompareBenchProfileTest, ReportsEveryKindOfRegressionOnce) {
  BenchProfile baseline = MakeProfile();
  StageAttribution validation;
  validation.name = "validation";
  baseline.stages.push_back(validation);
  BenchProfile current = MakeProfile();  // "validation" missing
  current.stages[0].wall_ms = baseline.stages[0].wall_ms * 3.0;  // wall only
  current.stages[1].cpu_ms = baseline.stages[1].cpu_ms * 3.0;    // cpu only
  std::vector<std::string> regressions =
      CompareBenchProfile(baseline, current, 1.5, 200.0);
  ASSERT_EQ(regressions.size(), 3u);
  EXPECT_NE(regressions[0].find("'mining' wall regressed"), std::string::npos);
  EXPECT_NE(regressions[1].find("'tagging' cpu regressed"), std::string::npos);
  EXPECT_NE(regressions[2].find("'validation' missing"), std::string::npos);
}

TEST(CompareBenchProfileTest, ExtraCurrentStagesAreAllowed) {
  // New stages in the current profile are growth, not regression.
  BenchProfile baseline = MakeProfile();
  BenchProfile current = MakeProfile();
  StageAttribution extra;
  extra.name = "brand_new";
  extra.cpu_ms = 1e9;
  current.stages.push_back(extra);
  EXPECT_TRUE(CompareBenchProfile(baseline, current, 1.5, 200.0).empty());
}

// The wall_ms side of the gate, one stage at a time.
BenchProfile OneStage(const std::string& name, double wall_ms) {
  BenchProfile profile;
  StageAttribution stage;
  stage.name = name;
  stage.wall_ms = wall_ms;
  profile.stages.push_back(stage);
  return profile;
}

TEST(CompareToBaselineTest, PassesWhenWithinLimit) {
  BenchProfile baseline = OneStage("mining", 100);
  BenchProfile current = OneStage("mining", 150);  // limit 100 * 2 + 50
  EXPECT_TRUE(CompareBenchProfile(baseline, current, 2.0, 50.0).empty());
}

TEST(CompareToBaselineTest, FlagsRegressedStage) {
  BenchProfile baseline = OneStage("mining", 100);
  BenchProfile current = OneStage("mining", 300);  // limit 100 * 2 + 50
  std::vector<std::string> regressions =
      CompareBenchProfile(baseline, current, 2.0, 50.0);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("'mining' wall regressed: 300.0ms > limit "
                                "250.0ms"),
            std::string::npos);
}

TEST(CompareToBaselineTest, SlackAbsorbsTinyStages) {
  // Doubling a 10us stage is not a regression.
  BenchProfile baseline = OneStage("taxonomy_schema", 0.01);
  BenchProfile current = OneStage("taxonomy_schema", 5);
  EXPECT_TRUE(CompareBenchProfile(baseline, current, 2.0, 50.0).empty());
}

TEST(CompareToBaselineTest, FlagsMissingStage) {
  BenchProfile baseline = OneStage("validation", 10);
  BenchProfile current;  // every stage dropped
  std::vector<std::string> regressions =
      CompareBenchProfile(baseline, current, 2.0, 50.0);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("missing"), std::string::npos);
}

TEST(StageProfilerTest, NullSourcesYieldNamedStagesInOrder) {
  StageProfiler profiler(nullptr, nullptr, "");
  profiler.BeginStage("alpha");
  profiler.BeginStage("beta");
  profiler.Finish();
  profiler.Finish();  // idempotent

  std::vector<StageAttribution> stages = profiler.TakeStages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "alpha");
  EXPECT_EQ(stages[1].name, "beta");
  EXPECT_GE(stages[0].wall_ms, 0.0);
  EXPECT_EQ(stages[0].lock_wait_ms, 0.0);
  EXPECT_EQ(stages[0].queue_wait_ms, 0.0);
}

TEST(StageProfilerTest, QueueWaitComesFromTheNamedHistogramDelta) {
  Registry registry;
  Histogram* queue = registry.GetHistogram("pool.queue_wait_us");
  StageProfiler profiler(nullptr, &registry, "pool.queue_wait_us");

  queue->Observe(1000);  // pre-existing sum is baseline, not stage cost
  profiler.BeginStage("alpha");
  queue->Observe(2500);
  queue->Observe(1500);
  profiler.BeginStage("beta");
  profiler.Finish();

  std::vector<StageAttribution> stages = profiler.TakeStages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_DOUBLE_EQ(stages[0].queue_wait_ms, 4.0);  // (2500+1500)us
  EXPECT_DOUBLE_EQ(stages[1].queue_wait_ms, 0.0);
}

TEST(StageProfilerTest, HeapDeltaAttributesAllocationsToTheOpenStage) {
  if (!HeapHookLinked()) GTEST_SKIP() << "alloc hook not linked";
  ScopedHeapTracking tracking;
  StageProfiler profiler(nullptr, nullptr, "");

  profiler.BeginStage("alloc_heavy");
  constexpr size_t kBytes = 8 * 1024 * 1024;
  HeapProbeAlloc(kBytes);
  profiler.BeginStage("quiet");
  profiler.Finish();

  std::vector<StageAttribution> stages = profiler.TakeStages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_GE(stages[0].alloc_mb, 8.0);
  EXPECT_GE(stages[0].allocs, 1u);
  // The quiet stage allocated at most test-harness noise, never 8MB.
  EXPECT_LT(stages[1].alloc_mb, 1.0);
}

}  // namespace
}  // namespace alicoco::obs::prof
