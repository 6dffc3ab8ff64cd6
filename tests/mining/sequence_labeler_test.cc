#include "mining/sequence_labeler.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace alicoco::mining {
namespace {

// Synthetic tagging task: "brandX catY" patterns with carrier words.
std::vector<LabeledSentence> MakeData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> brands = {"velkor", "tramix", "plonex"};
  std::vector<std::string> cats = {"boot", "dress", "grill", "lamp"};
  std::vector<std::string> fillers = {"the", "new", "great", "shiny"};
  std::vector<LabeledSentence> data;
  for (int i = 0; i < n; ++i) {
    LabeledSentence s;
    s.tokens.push_back(fillers[rng.Uniform(fillers.size())]);
    s.iob.push_back("O");
    if (rng.Bernoulli(0.7)) {
      s.tokens.push_back(brands[rng.Uniform(brands.size())]);
      s.iob.push_back("B-Brand");
    }
    s.tokens.push_back(cats[rng.Uniform(cats.size())]);
    s.iob.push_back("B-Category");
    if (rng.Bernoulli(0.4)) {
      s.tokens.push_back(fillers[rng.Uniform(fillers.size())]);
      s.iob.push_back("O");
    }
    data.push_back(std::move(s));
  }
  return data;
}

TEST(SequenceLabelerTest, LearnsSimplePattern) {
  SequenceLabelerConfig cfg;
  cfg.epochs = 6;
  cfg.word_dim = 12;
  cfg.hidden_dim = 12;
  SequenceLabeler labeler(cfg);
  labeler.Train(MakeData(300, 1));
  auto metrics = labeler.Evaluate(MakeData(60, 2));
  EXPECT_GT(metrics.f1, 0.95);
}

TEST(SequenceLabelerTest, LabelInventoryFromData) {
  SequenceLabelerConfig cfg;
  cfg.epochs = 1;
  SequenceLabeler labeler(cfg);
  labeler.Train(MakeData(20, 3));
  const auto& labels = labeler.labels();
  EXPECT_EQ(labels[0], "O");
  EXPECT_NE(std::find(labels.begin(), labels.end(), "B-Brand"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "B-Category"),
            labels.end());
}

TEST(SequenceLabelerTest, PredictHandlesUnknownWordsAndEmpty) {
  SequenceLabelerConfig cfg;
  cfg.epochs = 2;
  SequenceLabeler labeler(cfg);
  labeler.Train(MakeData(100, 4));
  EXPECT_TRUE(labeler.Predict({}).empty());
  auto tags = labeler.Predict({"zzzz", "qqqq"});
  EXPECT_EQ(tags.size(), 2u);  // decodes something for OOV input
}

TEST(SequenceLabelerTest, DeterministicGivenSeed) {
  SequenceLabelerConfig cfg;
  cfg.epochs = 2;
  auto data = MakeData(100, 5);
  SequenceLabeler a(cfg), b(cfg);
  a.Train(data);
  b.Train(data);
  auto ta = a.Predict({"the", "velkor", "boot"});
  auto tb = b.Predict({"the", "velkor", "boot"});
  EXPECT_EQ(ta, tb);
}

// Pooled training shards every batch the same way whatever the pool's
// size, so the trained weights (and hence every prediction) are
// bit-identical across pools.
TEST(SequenceLabelerTest, PoolSizeDoesNotChangeModel) {
  SequenceLabelerConfig cfg;
  cfg.epochs = 2;
  auto data = MakeData(90, 6);  // batches of 8 with a short tail
  const std::string dir = ::testing::TempDir() + "/labeler_pool_" +
                          std::to_string(::getpid()) + "_";
  std::string ref_weights;
  std::vector<std::vector<std::string>> ref_tags;
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    cfg.pool = &pool;
    SequenceLabeler labeler(cfg);
    labeler.Train(data);
    const std::string path = dir + std::to_string(threads) + ".ckpt";
    ASSERT_TRUE(labeler.Save(path).ok());
    std::string weights;
    {
      std::ifstream in(path + ".weights", std::ios::binary);
      weights.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::remove(path.c_str());
    std::remove((path + ".weights").c_str());
    ASSERT_FALSE(weights.empty());
    std::vector<std::vector<std::string>> tags;
    for (const auto& s : MakeData(30, 7)) {
      tags.push_back(labeler.Predict(s.tokens));
    }
    if (threads == 1) {
      ref_weights = weights;
      ref_tags = tags;
    } else {
      EXPECT_TRUE(weights == ref_weights) << threads << " threads";
      EXPECT_EQ(tags, ref_tags) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace alicoco::mining
