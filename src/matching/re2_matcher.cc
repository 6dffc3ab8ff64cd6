#include "matching/re2_matcher.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"

namespace alicoco::matching {

void Re2Matcher::BuildModel() {
  int d = config_.embed_dim;
  emb_ = MakeEmbedding("emb");
  align_proj_ = std::make_unique<nn::Linear>(&store_, "align", d, d,
                                             &init_rng_);
  // Fusion input: [x; aligned; x - aligned; x * aligned] -> hidden.
  fuse_ = std::make_unique<nn::Linear>(&store_, "fuse", 4 * d,
                                       config_.hidden, &init_rng_);
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{2 * config_.hidden, config_.hidden, 1},
      &init_rng_);
}

void Re2Matcher::CollectQuantPlan(nn::quant::QuantPlan* plan) const {
  emb_->AppendQuantPlan(plan);
  align_proj_->AppendQuantPlan(plan);
  fuse_->AppendQuantPlan(plan);
  head_->AppendQuantPlan(plan);
}

void Re2Matcher::AttachQuantizedWeights(
    const nn::quant::QuantizedStore& store) {
  emb_->AttachQuantized(store);
  align_proj_->AttachQuantized(store);
  fuse_->AttachQuantized(store);
  head_->AttachQuantized(store);
}

void Re2Matcher::DetachQuantizedWeights() {
  emb_->DetachQuantized();
  align_proj_->DetachQuantized();
  fuse_->DetachQuantized();
  head_->DetachQuantized();
}

nn::Graph::Var Re2Matcher::FuseSide(nn::Graph* g, nn::Graph::Var self,
                                    nn::Graph::Var other) const {
  // Soft alignment: attention of self rows over other rows.
  nn::Graph::Var q = align_proj_->Apply(g, self);
  nn::Graph::Var k = align_proj_->Apply(g, other);
  nn::Graph::Var weights = g->SoftmaxRows(g->MatMulTransB(q, k));
  nn::Graph::Var aligned = g->MatMul(weights, other);  // rows(self) x d
  nn::Graph::Var fused = g->Relu(fuse_->Apply(
      g, g->ConcatCols({self, aligned, g->Sub(self, aligned),
                        g->Mul(self, aligned)})));
  return g->MaxRows(fused);  // 1 x hidden
}

nn::Graph::Var Re2Matcher::Logit(nn::Graph* g,
                                 const std::vector<int>& concept_ids,
                                 const std::vector<int>& item_ids, bool train,
                                 Rng* rng) const {
  nn::Graph::Var c = emb_->Lookup(g, concept_ids);
  nn::Graph::Var i = emb_->Lookup(g, item_ids);
  c = g->Dropout(c, 0.1f, train, rng);
  i = g->Dropout(i, 0.1f, train, rng);
  nn::Graph::Var vc = FuseSide(g, c, i);
  nn::Graph::Var vi = FuseSide(g, i, c);
  return head_->Apply(g, g->ConcatCols({vc, vi}));
}

float Re2Matcher::ForwardLogit(const std::vector<int>& concept_ids,
                               const std::vector<int>& item_ids) const {
  struct Buffers {
    std::vector<float> words[2], proj[2], weights, aligned, fuse_in, fused,
        pooled;
    nn::ForwardScratch nn;
  };
  thread_local Buffers buf;
  const int d = config_.embed_dim;
  const int h = fuse_->out_dim();
  const int m = static_cast<int>(concept_ids.size());
  const int l = static_cast<int>(item_ids.size());
  float* c = nn::SizeBuffer(&buf.words[0], concept_ids.size() * d);
  emb_->Forward(concept_ids, c);
  float* i = nn::SizeBuffer(&buf.words[1], item_ids.size() * d);
  emb_->Forward(item_ids, i);
  // align_proj_ of each side, shared by both FuseSide calls of Logit.
  float* qc = nn::SizeBuffer(&buf.proj[0], concept_ids.size() * d);
  align_proj_->Forward(m, c, qc, nn::Activation::kNone, &buf.nn);
  float* qi = nn::SizeBuffer(&buf.proj[1], item_ids.size() * d);
  align_proj_->Forward(l, i, qi, nn::Activation::kNone, &buf.nn);
  float* pooled = nn::SizeBuffer(&buf.pooled, 2 * static_cast<size_t>(h));

  // FuseSide of Logit: `self` (ns rows, projected q) against `other`.
  auto fuse_side = [&](const float* self, const float* q, int ns,
                       const float* other, const float* k, int no,
                       float* out) {
    const size_t n_weights = static_cast<size_t>(ns) * no;
    float* weights = nn::SizeBuffer(&buf.weights, n_weights);
    std::fill(weights, weights + n_weights, 0.0f);
    nn::kernels::GemmTransBAccum(ns, d, no, q, k, weights);
    for (int r = 0; r < ns; ++r) nn::SoftmaxRow(no, weights + r * no);
    const size_t n_aligned = static_cast<size_t>(ns) * d;
    float* aligned = nn::SizeBuffer(&buf.aligned, n_aligned);
    std::fill(aligned, aligned + n_aligned, 0.0f);
    nn::kernels::GemmAccum(ns, no, d, weights, other, aligned);
    float* fuse_in = nn::SizeBuffer(&buf.fuse_in, 4 * n_aligned);
    for (int r = 0; r < ns; ++r) {
      const float* x = self + r * d;
      const float* a = aligned + r * d;
      float* row = fuse_in + 4 * r * d;
      for (int j = 0; j < d; ++j) {
        row[j] = x[j];
        row[d + j] = a[j];
        row[2 * d + j] = x[j] - a[j];
        row[3 * d + j] = x[j] * a[j];
      }
    }
    const size_t n_fused = static_cast<size_t>(ns) * h;
    float* fused = nn::SizeBuffer(&buf.fused, n_fused);
    fuse_->Forward(ns, fuse_in, fused, nn::Activation::kNone, &buf.nn);
    for (size_t j = 0; j < n_fused; ++j) fused[j] = std::max(0.0f, fused[j]);
    nn::MaxRows(ns, h, h, fused, out);
  };
  fuse_side(c, qc, m, i, qi, l, pooled);
  fuse_side(i, qi, l, c, qc, m, pooled + h);
  float logit = 0.0f;
  head_->Forward(1, pooled, &logit, &buf.nn);
  return logit;
}

}  // namespace alicoco::matching
