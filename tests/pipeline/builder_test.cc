// End-to-end pipeline integration test: builds a complete AliCoCo from a
// small synthetic world and checks every stage produced sensible structure.

#include "pipeline/builder.h"

#include <gtest/gtest.h>

#include "kg/persistence.h"
#include "kg/stats.h"

namespace alicoco::pipeline {
namespace {

struct Built {
  datagen::World world;
  std::unique_ptr<datagen::WorldResources> resources;
  kg::ConceptNet net;
  BuildReport report;

  Built() : world(datagen::World::Generate(WorldCfg())) {
    resources = std::make_unique<datagen::WorldResources>(
        world, datagen::ResourcesConfig{});
    AliCoCoBuilder builder(&world, resources.get(), Config());
    auto result = builder.Build(&report);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    net = std::move(result).ValueOrDie();
  }

  static PipelineConfig Config() {
    PipelineConfig cfg;
    cfg.labeler.epochs = 3;
    cfg.mining_epochs = 2;
    cfg.projection.epochs = 3;
    cfg.classifier.epochs = 3;
    cfg.tagger.epochs = 4;
    cfg.matcher.base.epochs = 4;
    cfg.association_candidates = 60;
    return cfg;
  }

  static datagen::WorldConfig WorldCfg() {
    datagen::WorldConfig cfg;
    cfg.seed = 81;
    cfg.heads_per_leaf = 2;
    cfg.derived_per_head = 3;
    cfg.per_domain_vocab = 10;
    cfg.num_events = 8;
    cfg.num_items = 500;
    cfg.num_good_ec_concepts = 250;
    cfg.num_bad_ec_concepts = 250;
    cfg.titles = 900;
    cfg.reviews = 400;
    cfg.guides = 400;
    cfg.queries = 300;
    cfg.num_users = 20;
    cfg.num_needs_queries = 50;
    return cfg;
  }
};

Built& SharedBuilt() {
  static Built b;
  return b;
}

TEST(PipelineTest, AllStagesProduceStructure) {
  Built& b = SharedBuilt();
  const auto& r = b.report;
  EXPECT_GT(r.seed_concepts, 100u);
  ASSERT_EQ(r.mining_epochs.size(), 2u);
  EXPECT_GT(r.mined_concepts, 0u);
  EXPECT_GT(r.isa_from_patterns, 0u);
  EXPECT_GT(r.ec_candidates, 100u);
  EXPECT_TRUE(r.audit_passed);
  EXPECT_GT(r.audit_accuracy, 0.7);
  EXPECT_GT(r.ec_accepted, 20u);
  EXPECT_GT(r.interpretation_links, r.ec_accepted / 2);
  EXPECT_EQ(r.items_added, b.world.net().num_items());
  EXPECT_GT(r.item_primitive_links, r.items_added);  // >1 tag per item
  EXPECT_GT(r.item_ec_links, 0u);
}

TEST(PipelineTest, BuiltNetQualityAgainstGold) {
  Built& b = SharedBuilt();
  auto cmp = AliCoCoBuilder::CompareToGold(b.net, b.world);
  EXPECT_GT(cmp.primitive_precision, 0.95);  // oracle-audited adds
  EXPECT_GT(cmp.primitive_recall, 0.6);
  EXPECT_GT(cmp.isa_precision, 0.8);
  EXPECT_GT(cmp.isa_recall, 0.5);
  EXPECT_GT(cmp.ec_precision, 0.6);
  EXPECT_GT(cmp.item_link_precision, 0.2);
}

TEST(PipelineTest, ReportSummaryMentionsStages) {
  Built& b = SharedBuilt();
  std::string s = b.report.Summary();
  EXPECT_NE(s.find("seed concepts"), std::string::npos);
  EXPECT_NE(s.find("mining epoch 1"), std::string::npos);
  EXPECT_NE(s.find("isA from patterns"), std::string::npos);
  EXPECT_NE(s.find("item-ec links"), std::string::npos);
}

TEST(PipelineTest, BuiltNetSurvivesPersistenceRoundTrip) {
  Built& b = SharedBuilt();
  std::string path = std::string(::testing::TempDir()) + "/built_net.txt";
  ASSERT_TRUE(kg::SaveConceptNet(b.net, path).ok());
  auto loaded = kg::LoadConceptNet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(kg::StatisticsToTable(kg::ComputeStatistics(b.net)),
            kg::StatisticsToTable(kg::ComputeStatistics(*loaded)));
}

TEST(PipelineTest, StatisticsHaveTable2Shape) {
  Built& b = SharedBuilt();
  auto stats = kg::ComputeStatistics(b.net);
  EXPECT_EQ(stats.per_domain.size(), 20u);
  EXPECT_GT(stats.num_primitive_concepts, 0u);
  EXPECT_GT(stats.num_ec_concepts, 0u);
  EXPECT_GT(stats.num_items, 0u);
  EXPECT_GT(stats.total_relations, stats.num_items);
}

// Scores are probabilities, so a threshold above 1 links no item to any
// concept: the degenerate item-EC layer must fail the build, not ship.
TEST(PipelineTest, EmptyItemEcLayerFailsBuild) {
  datagen::World world = datagen::World::Generate(Built::WorldCfg());
  datagen::WorldResources resources(world, datagen::ResourcesConfig{});
  PipelineConfig cfg = Built::Config();
  cfg.association_min_threshold = 2.0;
  BuildReport report;
  auto result = AliCoCoBuilder(&world, &resources, cfg).Build(&report);
  ASSERT_GT(report.ec_accepted, 0u);
  ASSERT_GT(report.items_added, 0u);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("linked no item"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace alicoco::pipeline
