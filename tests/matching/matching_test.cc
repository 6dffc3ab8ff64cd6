// Matching module tests (Section 7.6): dataset construction, every matcher
// trains and beats chance, and the key paper claims hold on the synthetic
// world — lexical matching fails on semantic drift, knowledge bridges it.
// The tape-free Score path is checked against the training tape bit for bit
// (tools/ci.sh runs this suite on both kernel tiers), and the knowledge
// matcher's per-thread concept cache against weight changes, concurrent
// scoring and allocation counts (this binary links the heap hook).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/resources.h"
#include "datagen/world.h"
#include "matching/bm25_matcher.h"
#include "matching/dssm.h"
#include "matching/knowledge_matcher.h"
#include "matching/match_pyramid.h"
#include "matching/re2_matcher.h"
#include "obs/prof/heap_stats.h"
#include "text/tokenizer.h"

namespace alicoco::matching {
namespace {

struct Fixture {
  datagen::World world;
  datagen::WorldResources resources;
  MatchingDataset dataset;

  static datagen::WorldConfig WorldCfg() {
    datagen::WorldConfig cfg;
    cfg.seed = 61;
    cfg.heads_per_leaf = 2;
    cfg.derived_per_head = 3;
    cfg.per_domain_vocab = 12;
    cfg.num_events = 10;
    cfg.num_items = 700;
    cfg.num_good_ec_concepts = 120;
    cfg.num_bad_ec_concepts = 40;
    cfg.titles = 1000;
    cfg.reviews = 500;
    cfg.guides = 400;
    cfg.queries = 200;
    cfg.num_users = 10;
    cfg.num_needs_queries = 50;
    return cfg;
  }

  Fixture()
      : world(datagen::World::Generate(WorldCfg())),
        resources(world, datagen::ResourcesConfig{}) {
    MatchingDatasetConfig mc;
    mc.max_positives_per_concept = 6;
    mc.rank_candidates = 15;
    dataset = BuildMatchingDataset(world, mc);
  }

  KnowledgeResources KnowRes() const {
    KnowledgeResources r;
    r.pos_tagger = &world.pos_tagger();
    r.gloss_encoder = &resources.gloss_encoder();
    r.gloss_lookup = [this](const std::string& w) {
      return resources.GlossOf(w);
    };
    r.concept_classes = [this](const std::vector<std::string>& tokens) {
      std::vector<int> out;
      auto ec = world.net().FindEcConcept(text::JoinTokens(tokens));
      if (ec.has_value()) {
        for (kg::ConceptId p : world.net().PrimitivesForEc(*ec)) {
          out.push_back(static_cast<int>(world.net().Get(p).cls.value));
        }
      }
      return out;
    };
    r.num_classes = static_cast<int>(world.net().taxonomy().size());
    return r;
  }
};

Fixture& SharedFixture() {
  static Fixture f;
  return f;
}

TEST(MatchingDatasetTest, SplitsAndLabels) {
  Fixture& f = SharedFixture();
  EXPECT_FALSE(f.dataset.train.empty());
  EXPECT_FALSE(f.dataset.test.empty());
  EXPECT_FALSE(f.dataset.rank_queries.empty());
  // Test concepts are disjoint from train concepts.
  std::unordered_set<std::string> train_concepts;
  for (const auto& ex : f.dataset.train) {
    train_concepts.insert(text::JoinTokens(ex.concept_tokens));
  }
  for (const auto& ex : f.dataset.test) {
    EXPECT_EQ(train_concepts.count(text::JoinTokens(ex.concept_tokens)), 0u);
  }
  // Labels are consistent with the gold net.
  for (const auto& ex : f.dataset.test) {
    auto ec = f.world.net().FindEcConcept(text::JoinTokens(ex.concept_tokens));
    ASSERT_TRUE(ec.has_value());
    auto items = f.world.net().ItemsForEc(*ec);
    bool linked = std::find(items.begin(), items.end(),
                            kg::ItemId(static_cast<uint32_t>(ex.item_id))) !=
                  items.end();
    EXPECT_EQ(linked, ex.label == 1);
  }
}

TEST(MatchingTest, Bm25ScoresLexicalOverlapOnly) {
  Fixture& f = SharedFixture();
  Bm25Matcher bm25;
  bm25.Train(f.dataset);
  auto m = EvaluateMatcher(bm25, f.dataset);
  // BM25 is better than random ordering but far from the learned models.
  EXPECT_GT(m.p_at_10, 0.1);
  EXPECT_LT(m.p_at_10, 0.85);
}

TEST(MatchingTest, EveryNeuralMatcherBeatsChance) {
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 2;
  std::vector<std::unique_ptr<Matcher>> models;
  models.push_back(std::make_unique<DssmMatcher>(
      cfg, &f.resources.embeddings(), &f.resources.vocab()));
  models.push_back(std::make_unique<MatchPyramidMatcher>(
      cfg, &f.resources.embeddings(), &f.resources.vocab()));
  models.push_back(std::make_unique<Re2Matcher>(
      cfg, &f.resources.embeddings(), &f.resources.vocab()));
  for (auto& model : models) {
    model->Train(f.dataset);
    auto m = EvaluateMatcher(*model, f.dataset);
    EXPECT_GT(m.auc, 0.6) << model->name();
  }
}

TEST(MatchingTest, KnowledgeMatcherLearns) {
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 3;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  EXPECT_EQ(model.name(), "Ours + Knowledge");
  model.Train(f.dataset);
  auto m = EvaluateMatcher(model, f.dataset);
  EXPECT_GT(m.auc, 0.7);
  EXPECT_GT(m.p_at_10, 0.4);
}

TEST(MatchingTest, KnowledgeBridgesSemanticDrift) {
  // On event-driven test pairs (zero token overlap), the knowledge variant
  // must outscore the no-knowledge variant.
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig with_cfg;
  with_cfg.base.epochs = 3;
  KnowledgeMatcher with_k(with_cfg, f.KnowRes(), &f.resources.embeddings(),
                          &f.resources.vocab());
  with_k.Train(f.dataset);

  KnowledgeMatcherConfig without_cfg;
  without_cfg.base.epochs = 3;
  without_cfg.use_knowledge = false;
  KnowledgeResources no_know;
  no_know.pos_tagger = &f.world.pos_tagger();
  KnowledgeMatcher without_k(without_cfg, no_know, &f.resources.embeddings(),
                             &f.resources.vocab());
  EXPECT_EQ(without_k.name(), "Ours");
  without_k.Train(f.dataset);

  // Collect drift test pairs: positive pairs with no token overlap.
  std::vector<double> with_scores, without_scores;
  std::vector<int> labels;
  for (const auto& ex : f.dataset.test) {
    std::unordered_set<std::string> ct(ex.concept_tokens.begin(),
                                       ex.concept_tokens.end());
    bool overlap = false;
    for (const auto& t : ex.item_tokens) {
      if (ct.count(t)) overlap = true;
    }
    if (overlap) continue;
    with_scores.push_back(
        with_k.Score(ex.concept_tokens, ex.item_tokens, ex.item_id));
    without_scores.push_back(
        without_k.Score(ex.concept_tokens, ex.item_tokens, ex.item_id));
    labels.push_back(ex.label);
  }
  ASSERT_GT(labels.size(), 20u);
  double with_auc = eval::Auc(with_scores, labels);
  double without_auc = eval::Auc(without_scores, labels);
  EXPECT_GT(with_auc, 0.6);
  EXPECT_GT(with_auc, without_auc - 0.05);
}

/// A matcher that can also score through its training tape. Test-only:
/// reaches the protected Logit, which production scoring never calls.
template <typename Base>
class TapeScored : public Base {
 public:
  using Base::Base;

  /// sigmoid(Logit(train=false)), computed exactly as Score does.
  double TapeScore(const MatchingExample& ex) const {
    nn::Graph g;
    nn::Graph::Var logit =
        this->Logit(&g, this->Encode(ex.concept_tokens),
                    this->Encode(ex.item_tokens), false, nullptr);
    const float x = g.Value(logit).At(0, 0);
    return 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
  }
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

double ScoreOf(const Matcher& model, const MatchingExample& ex) {
  return model.Score(ex.concept_tokens, ex.item_tokens, ex.item_id);
}

/// Every test pair, with concepts visited in A, B, A order: the knowledge
/// matcher's concept cache misses on B and on the return to A, and hits
/// when consecutive pairs share a concept.
template <typename M>
void ExpectForwardMatchesTape(const M& model, const MatchingDataset& ds) {
  const size_t n = ds.test.size();
  for (size_t k = 0; k < n; ++k) {
    const MatchingExample& a = ds.test[k];
    const MatchingExample& b = ds.test[(k + n / 2) % n];
    for (const MatchingExample* ex : {&a, &b, &a}) {
      ASSERT_EQ(Bits(ScoreOf(model, *ex)), Bits(model.TapeScore(*ex)))
          << model.name() << " test pair " << k;
    }
  }
}

TEST(MatchingTest, ForwardPathMatchesTapeBitForBit) {
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 1;
  const text::SkipgramModel* emb = &f.resources.embeddings();
  const text::Vocabulary* vocab = &f.resources.vocab();

  TapeScored<DssmMatcher> dssm(cfg, emb, vocab);
  dssm.Train(f.dataset);
  ExpectForwardMatchesTape(dssm, f.dataset);

  TapeScored<MatchPyramidMatcher> pyramid(cfg, emb, vocab);
  pyramid.Train(f.dataset);
  ExpectForwardMatchesTape(pyramid, f.dataset);

  TapeScored<Re2Matcher> re2(cfg, emb, vocab);
  re2.Train(f.dataset);
  ExpectForwardMatchesTape(re2, f.dataset);

  KnowledgeMatcherConfig kcfg;
  kcfg.base.epochs = 1;
  TapeScored<KnowledgeMatcher> knowledge(kcfg, f.KnowRes(), emb, vocab);
  knowledge.Train(f.dataset);
  ExpectForwardMatchesTape(knowledge, f.dataset);
}

TEST(MatchingTest, ConceptCacheFollowsWeightChanges) {
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 1;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  model.Train(f.dataset);
  const MatchingExample& ex = f.dataset.test.front();
  // A new thread starts with an empty concept cache.
  auto cold = [&] {
    double score = 0;
    std::thread scorer([&] { score = ScoreOf(model, ex); });
    scorer.join();
    return score;
  };

  const double fp32 = ScoreOf(model, ex);  // caches the fp32 concept side
  model.EnableQuantizedInference(nn::quant::QuantMode::kInt8);
  const double int8 = ScoreOf(model, ex);  // same concept, new weights
  EXPECT_EQ(Bits(int8), Bits(cold()));
  EXPECT_NE(Bits(int8), Bits(fp32));  // the weights did change

  model.EnableQuantizedInference(nn::quant::QuantMode::kNone);
  EXPECT_EQ(Bits(ScoreOf(model, ex)), Bits(fp32));
  EXPECT_EQ(Bits(cold()), Bits(fp32));

  model.EnableQuantizedInference(nn::quant::QuantMode::kInt8);
  const std::string path =
      std::string(::testing::TempDir()) + "/concept_cache_int8.bin";
  ASSERT_TRUE(model.SaveQuantized(path).ok());
  model.EnableQuantizedInference(nn::quant::QuantMode::kNone);
  EXPECT_EQ(Bits(ScoreOf(model, ex)), Bits(fp32));
  ASSERT_TRUE(model.LoadQuantizedInference(path).ok());
  EXPECT_EQ(Bits(ScoreOf(model, ex)), Bits(int8));
  EXPECT_EQ(Bits(cold()), Bits(int8));
}

TEST(MatchingTest, WarmScoreAllocatesAlmostNothing) {
  ASSERT_TRUE(obs::prof::HeapHookLinked());
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 1;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  model.Train(f.dataset);
  ASSERT_FALSE(f.dataset.rank_queries.empty());
  const RankQuery& page = f.dataset.rank_queries.front();
  const size_t pairs = page.item_tokens.size();
  ASSERT_GT(pairs, 4u);
  for (nn::quant::QuantMode mode :
       {nn::quant::QuantMode::kNone, nn::quant::QuantMode::kInt8}) {
    model.EnableQuantizedInference(mode);
    auto score_page = [&] {
      for (size_t i = 0; i < pairs; ++i) {
        model.Score(page.concept_tokens, page.item_tokens[i],
                    page.item_ids[i]);
      }
    };
    score_page();  // grows the per-thread buffers, caches the concept
    obs::prof::HeapCounters before, after;
    {
      obs::prof::ScopedHeapTracking tracking;
      before = obs::prof::HeapCountersNow();
      score_page();
      after = obs::prof::HeapCountersNow();
    }
    // The tape made several hundred allocations per Score.
    EXPECT_LT(after.allocs - before.allocs, pairs)
        << nn::quant::QuantModeName(mode) << ": allocations over " << pairs
        << " warm scores";
  }
}

TEST(MatchingRaceTest, ConcurrentScoresMatchSequential) {
  // Score keeps its scratch and concept cache per thread; pool threads
  // scoring interleaved concepts must agree bit for bit with one thread.
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 1;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  model.Train(f.dataset);
  const size_t half = std::min<size_t>(f.dataset.test.size() / 2, 48);
  std::vector<const MatchingExample*> pairs;
  for (size_t k = 0; k < half; ++k) {
    pairs.push_back(&f.dataset.test[k]);
    pairs.push_back(&f.dataset.test[f.dataset.test.size() - 1 - k]);
  }
  ThreadPool pool(4);
  for (nn::quant::QuantMode mode :
       {nn::quant::QuantMode::kNone, nn::quant::QuantMode::kInt8}) {
    model.EnableQuantizedInference(mode);
    std::vector<double> serial(pairs.size()), parallel(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      serial[i] = ScoreOf(model, *pairs[i]);
    }
    pool.ParallelFor(pairs.size(), [&](size_t i) {
      parallel[i] = ScoreOf(model, *pairs[i]);
    });
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(Bits(parallel[i]), Bits(serial[i]))
          << nn::quant::QuantModeName(mode) << " pair " << i;
    }
  }
}

TEST(MatchingTest, ScoreBeforeTrainAborts) {
  NeuralMatcherConfig cfg;
  DssmMatcher model(cfg, nullptr, nullptr);
  EXPECT_DEATH(model.Score({"a"}, {"b"}, 0), "before Train");
}

}  // namespace
}  // namespace alicoco::matching
