#include "matching/dssm.h"

#include "nn/kernels.h"

namespace alicoco::matching {

void DssmMatcher::BuildModel() {
  emb_ = MakeEmbedding("emb");
  concept_tower_ = std::make_unique<nn::Mlp>(
      &store_, "concept_tower",
      std::vector<int>{config_.embed_dim, config_.hidden, config_.hidden},
      &init_rng_);
  item_tower_ = std::make_unique<nn::Mlp>(
      &store_, "item_tower",
      std::vector<int>{config_.embed_dim, config_.hidden, config_.hidden},
      &init_rng_);
  scale_ = store_.Create("scale", 1, 1, nn::ParameterStore::Init::kZero,
                         nullptr);
  scale_->value.At(0, 0) = 4.0f;  // sharpen cosine into a usable logit
}

void DssmMatcher::CollectQuantPlan(nn::quant::QuantPlan* plan) const {
  emb_->AppendQuantPlan(plan);
  concept_tower_->AppendQuantPlan(plan);
  item_tower_->AppendQuantPlan(plan);
  // scale_ (1x1) and the tower biases ride the fp32 passthrough.
}

void DssmMatcher::AttachQuantizedWeights(
    const nn::quant::QuantizedStore& store) {
  emb_->AttachQuantized(store);
  concept_tower_->AttachQuantized(store);
  item_tower_->AttachQuantized(store);
}

void DssmMatcher::DetachQuantizedWeights() {
  emb_->DetachQuantized();
  concept_tower_->DetachQuantized();
  item_tower_->DetachQuantized();
}

nn::Graph::Var DssmMatcher::Logit(nn::Graph* g,
                                  const std::vector<int>& concept_ids,
                                  const std::vector<int>& item_ids, bool train,
                                  Rng* rng) const {
  nn::Graph::Var c = g->MeanRows(emb_->Lookup(g, concept_ids));
  nn::Graph::Var i = g->MeanRows(emb_->Lookup(g, item_ids));
  c = g->Dropout(c, 0.1f, train, rng);
  i = g->Dropout(i, 0.1f, train, rng);
  nn::Graph::Var cv = g->Tanh(concept_tower_->Apply(g, c));
  nn::Graph::Var iv = g->Tanh(item_tower_->Apply(g, i));
  // Cosine similarity via normalized dot product approximation: tanh-bounded
  // towers keep magnitudes stable, so a plain dot with learned scale works.
  nn::Graph::Var dot = g->MatMulTransB(cv, iv);  // 1x1
  return g->Mul(dot, g->Use(scale_));
}

float DssmMatcher::ForwardLogit(const std::vector<int>& concept_ids,
                                const std::vector<int>& item_ids) const {
  struct Buffers {
    std::vector<float> words, mean, tower[2];
    nn::ForwardScratch nn;
  };
  thread_local Buffers buf;
  const int d = config_.embed_dim;
  const int h = concept_tower_->out_dim();
  // One side of Logit: MeanRows over the embeddings, tower, Tanh.
  auto encode = [&](const std::vector<int>& ids, const nn::Mlp& tower,
                    std::vector<float>* out_buf) {
    const int n = static_cast<int>(ids.size());
    float* words = nn::SizeBuffer(&buf.words, ids.size() * d);
    emb_->Forward(ids, words);
    float* mean = nn::SizeBuffer(&buf.mean, d);
    nn::MeanRows(n, d, d, words, mean);
    float* out = nn::SizeBuffer(out_buf, h);
    tower.Forward(1, mean, out, &buf.nn);
    nn::TanhInPlace(h, out);
    return out;
  };
  const float* cv = encode(concept_ids, *concept_tower_, &buf.tower[0]);
  const float* iv = encode(item_ids, *item_tower_, &buf.tower[1]);
  float dot = 0.0f;
  nn::kernels::GemmTransBAccum(1, h, 1, cv, iv, &dot);
  return dot * scale_->value.At(0, 0);
}

}  // namespace alicoco::matching
