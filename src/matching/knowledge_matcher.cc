#include "matching/knowledge_matcher.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "matching/match_pyramid.h"
#include "nn/kernels.h"

namespace alicoco::matching {

KnowledgeMatcher::KnowledgeMatcher(const KnowledgeMatcherConfig& config,
                                   const KnowledgeResources& resources,
                                   const text::SkipgramModel* embeddings,
                                   const text::Vocabulary* corpus_vocab)
    : NeuralMatcherBase(config.base, embeddings, corpus_vocab),
      kcfg_(config),
      res_(resources) {
  ALICOCO_CHECK(res_.pos_tagger != nullptr) << "POS tagger required";
  ALICOCO_CHECK_GT(kcfg_.cnn_filters, 0);
  ALICOCO_CHECK_GT(kcfg_.cnn_window, 0);
  ALICOCO_CHECK_GT(kcfg_.pos_dim, 0);
  ALICOCO_CHECK_GT(kcfg_.pyramid_layers, 0);
  ALICOCO_CHECK_GT(kcfg_.pool_grid, 0);
  if (kcfg_.use_knowledge) {
    ALICOCO_CHECK(res_.gloss_encoder != nullptr && res_.gloss_lookup &&
                  res_.concept_classes && res_.num_classes > 0)
        << "use_knowledge requires gloss and class resources";
  }
}

void KnowledgeMatcher::BuildModel() {
  int d = config_.embed_dim;
  int f = kcfg_.cnn_filters;
  emb_ = MakeEmbedding("emb");
  pos_emb_ = std::make_unique<nn::Embedding>(
      &store_, "pos_emb", text::kNumPosTags, kcfg_.pos_dim, &init_rng_);
  int in_dim = d + kcfg_.pos_dim;
  concept_cnn_ = std::make_unique<nn::Conv1D>(&store_, "concept_cnn", in_dim,
                                              f, kcfg_.cnn_window,
                                              &init_rng_);
  item_cnn_ = std::make_unique<nn::Conv1D>(&store_, "item_cnn", in_dim, f,
                                           kcfg_.cnn_window, &init_rng_);
  att_w1_ = std::make_unique<nn::Linear>(&store_, "att_w1", f, f, &init_rng_);
  att_w2_ = std::make_unique<nn::Linear>(&store_, "att_w2", f, f, &init_rng_);
  att_v_ = store_.Create("att_v", f, 1, nn::ParameterStore::Init::kXavier,
                         &init_rng_);
  if (kcfg_.use_knowledge) {
    gloss_proj_ = std::make_unique<nn::Linear>(
        &store_, "gloss_proj", res_.gloss_encoder->dim(), d, &init_rng_);
    class_emb_ = std::make_unique<nn::Embedding>(
        &store_, "class_emb", res_.num_classes, d, &init_rng_);
  }
  for (int k = 0; k < kcfg_.pyramid_layers; ++k) {
    // Near-identity init: layer 0 starts as a plain dot-product matrix (the
    // MatchPyramid interaction); later layers perturb it so the K layers
    // learn distinct similarity facets.
    nn::Parameter* wk = store_.Create("pyramid" + std::to_string(k), d, d,
                                      nn::ParameterStore::Init::kGaussian,
                                      &init_rng_, 0.02f * (k + 1));
    for (int j = 0; j < d; ++j) wk->value.At(j, j) += 1.0f;
    pyramid_.push_back(wk);
  }
  int grid_feats = kcfg_.pool_grid * kcfg_.pool_grid + 4;
  pyramid_mlp_ = std::make_unique<nn::Mlp>(
      &store_, "pyramid_mlp",
      std::vector<int>{kcfg_.pyramid_layers * grid_feats, config_.hidden},
      &init_rng_);
  int head_in = config_.hidden + (kcfg_.use_attention_channel ? 3 * f : 0);
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{head_in, config_.hidden, 1},
      &init_rng_);
}

void KnowledgeMatcher::CollectQuantPlan(nn::quant::QuantPlan* plan) const {
  emb_->AppendQuantPlan(plan);
  pos_emb_->AppendQuantPlan(plan);
  concept_cnn_->AppendQuantPlan(plan);
  item_cnn_->AppendQuantPlan(plan);
  att_w1_->AppendQuantPlan(plan);
  att_w2_->AppendQuantPlan(plan);
  if (kcfg_.use_knowledge) {
    gloss_proj_->AppendQuantPlan(plan);
    class_emb_->AppendQuantPlan(plan);
  }
  // The bilinear pyramid maps feed kw * Wk, so they quantize transposed
  // like Linear weights. att_v_ (f x 1) stays fp32 passthrough.
  for (const nn::Parameter* wk : pyramid_) {
    plan->push_back({wk, /*transpose=*/true});
  }
  pyramid_mlp_->AppendQuantPlan(plan);
  head_->AppendQuantPlan(plan);
}

void KnowledgeMatcher::AttachQuantizedWeights(
    const nn::quant::QuantizedStore& store) {
  emb_->AttachQuantized(store);
  pos_emb_->AttachQuantized(store);
  concept_cnn_->AttachQuantized(store);
  item_cnn_->AttachQuantized(store);
  att_w1_->AttachQuantized(store);
  att_w2_->AttachQuantized(store);
  if (kcfg_.use_knowledge) {
    gloss_proj_->AttachQuantized(store);
    class_emb_->AttachQuantized(store);
  }
  pyramid_q_.clear();
  pyramid_q_.reserve(pyramid_.size());
  for (const nn::Parameter* wk : pyramid_) {
    const nn::quant::QuantizedTensor* q = store.FindQuantized(wk->name);
    ALICOCO_CHECK(q != nullptr)
        << "quantized store has no tensor for " << wk->name;
    ALICOCO_CHECK(q->rows() == wk->value.cols() &&
                  q->cols() == wk->value.rows())
        << "quantized shape mismatch for " << wk->name;
    pyramid_q_.push_back(q);
  }
  pyramid_mlp_->AttachQuantized(store);
  head_->AttachQuantized(store);
}

void KnowledgeMatcher::DetachQuantizedWeights() {
  emb_->DetachQuantized();
  pos_emb_->DetachQuantized();
  concept_cnn_->DetachQuantized();
  item_cnn_->DetachQuantized();
  if (gloss_proj_ != nullptr) gloss_proj_->DetachQuantized();
  if (class_emb_ != nullptr) class_emb_->DetachQuantized();
  att_w1_->DetachQuantized();
  att_w2_->DetachQuantized();
  pyramid_q_.clear();
  pyramid_mlp_->DetachQuantized();
  head_->DetachQuantized();
}

nn::Graph::Var KnowledgeMatcher::Logit(nn::Graph* g,
                                       const std::vector<int>& concept_ids,
                                       const std::vector<int>& item_ids,
                                       bool train, Rng* rng) const {
  auto encode_side = [&](const std::vector<int>& ids,
                         const nn::Conv1D& cnn) {
    std::vector<int> pos_ids;
    pos_ids.reserve(ids.size());
    for (int id : ids) pos_ids.push_back(PosId(id));
    nn::Graph::Var words = emb_->Lookup(g, ids);
    nn::Graph::Var pos = pos_emb_->Lookup(g, pos_ids);
    nn::Graph::Var x = g->ConcatCols({words, pos});
    x = g->Dropout(x, 0.1f, train, rng);
    return cnn.Apply(g, x);
  };

  nn::Graph::Var w_enc = encode_side(concept_ids, *concept_cnn_);  // m x f
  nn::Graph::Var t_enc = encode_side(item_ids, *item_cnn_);        // l x f

  // Two-way additive attention (Eq. 11-14).
  nn::Graph::Var att = g->AdditiveAttention(att_w1_->Apply(g, w_enc),
                                            att_w2_->Apply(g, t_enc),
                                            g->Use(att_v_));  // m x l
  nn::Graph::Var alpha_w =
      g->SoftmaxRows(g->Transpose(g->SumCols(att)));  // 1 x m
  nn::Graph::Var alpha_t = g->SoftmaxRows(g->SumRows(att));  // 1 x l
  nn::Graph::Var c = g->MatMul(alpha_w, w_enc);  // 1 x f
  nn::Graph::Var i = g->MatMul(alpha_t, t_enc);  // 1 x f

  // Knowledge sequence kw: concept word embeddings, plus gloss vectors and
  // linked-class embeddings when knowledge is on (Eq. 15-16).
  std::vector<nn::Graph::Var> kw_parts = {emb_->Lookup(g, concept_ids)};
  if (kcfg_.use_knowledge) {
    std::vector<std::string> tokens = vocab_.Decode(concept_ids);
    nn::Tensor gloss_mat(static_cast<int>(tokens.size()),
                         res_.gloss_encoder->dim());
    for (size_t w = 0; w < tokens.size(); ++w) {
      auto gloss = res_.gloss_lookup(tokens[w]);
      if (gloss.empty()) continue;
      auto vec = res_.gloss_encoder->Encode(gloss);
      ALICOCO_DCHECK_EQ(vec.size(),
                        static_cast<size_t>(res_.gloss_encoder->dim()));
      for (int k = 0; k < res_.gloss_encoder->dim(); ++k) {
        gloss_mat.At(static_cast<int>(w), k) = vec[static_cast<size_t>(k)];
      }
    }
    kw_parts.push_back(
        g->Tanh(gloss_proj_->Apply(g, g->Input(std::move(gloss_mat)))));
    std::vector<int> classes = res_.concept_classes(tokens);
    if (!classes.empty()) {
      for (int& cid : classes) {
        ALICOCO_CHECK(cid >= 0 && cid < res_.num_classes);
      }
      kw_parts.push_back(class_emb_->Lookup(g, classes));
    }
  }
  nn::Graph::Var kw = g->ConcatRows(kw_parts);          // (m+g+m') x d
  nn::Graph::Var t_words = emb_->Lookup(g, item_ids);   // l x d

  // K-layer bilinear matching pyramid (Eq. 16-17): per layer, a dynamic
  // grid pool plus best-alignment statistics (the paper's per-layer CNN +
  // max-pooling): max/mean of each side's best-match scores.
  std::vector<nn::Graph::Var> layer_feats;
  layer_feats.reserve(pyramid_.size());
  for (size_t k = 0; k < pyramid_.size(); ++k) {
    nn::Graph::Var proj = g->MatMul(kw, g->Use(pyramid_[k]));
    nn::Graph::Var match = g->MatMulTransB(proj, t_words);
    nn::Graph::Var col_best = g->MaxRows(match);                // 1 x l
    nn::Graph::Var row_best = g->MaxRows(g->Transpose(match));  // 1 x m'
    nn::Graph::Var stats = g->ConcatCols(
        {g->MaxRows(g->Transpose(col_best)),   // best overall (cols)
         g->MeanRows(g->Transpose(col_best)),  // mean col best
         g->MaxRows(g->Transpose(row_best)),   // best overall (rows)
         g->MeanRows(g->Transpose(row_best))});
    layer_feats.push_back(
        g->ConcatCols({DynamicGridPool(g, match, kcfg_.pool_grid), stats}));
  }
  nn::Graph::Var ci =
      g->Tanh(pyramid_mlp_->Apply(g, g->ConcatCols(layer_feats)));

  // Final score (Eq. 18); the elementwise product gives the MLP a direct
  // similarity channel between the attended representations.
  if (!kcfg_.use_attention_channel) return head_->Apply(g, ci);
  return head_->Apply(g, g->ConcatCols({c, i, g->Mul(c, i), ci}));
}

// ---- tape-free inference ----
// ForwardLogit repeats Logit(train=false) op for op over raw buffers. The
// encoders of paper Fig. 8 see one side each until the two-way attention,
// so everything derived from the concept alone is computed once per
// (weights, concept) and kept in a single-entry per-thread cache: a
// concept page scores all its candidate items against one cached entry.

struct KnowledgeMatcher::ForwardBuffers {
  // Concept cache, valid while `generation` equals the matcher's
  // weights_generation() (0: empty) and `ids` the concept ids.
  uint64_t generation = 0;
  std::vector<int> ids;
  int kw_rows = 0;               ///< rows of the knowledge sequence kw
  std::vector<float> w_enc;      ///< m x f concept encoding
  std::vector<float> att_w;      ///< m x f: w_enc * att_w1
  std::vector<float> kw;         ///< kw_rows x d knowledge sequence
  std::vector<float> kw_proj;    ///< per pyramid layer k: kw * W_k

  // Per-pair scratch.
  std::vector<float> x, gloss, t_enc, att_t, att, alpha_w, alpha_t,
      t_words, match, col_best, row_best, feats, head_in;
  nn::ForwardScratch nn;
};

int KnowledgeMatcher::PosId(int id) const {
  return static_cast<int>(res_.pos_tagger->Tag(vocab_.Token(id)));
}

void KnowledgeMatcher::EncodeSideForward(const std::vector<int>& ids,
                                         const nn::Conv1D& cnn, float* out,
                                         ForwardBuffers* buf) const {
  const int d = config_.embed_dim;
  const size_t width = static_cast<size_t>(d + kcfg_.pos_dim);
  float* x = nn::SizeBuffer(&buf->x, ids.size() * width);
  for (size_t t = 0; t < ids.size(); ++t) {
    emb_->CopyRow(ids[t], x + t * width);
    pos_emb_->CopyRow(PosId(ids[t]), x + t * width + d);
  }
  cnn.Forward(static_cast<int>(ids.size()), x, out, &buf->nn);
}

void KnowledgeMatcher::EncodeConceptForward(
    const std::vector<int>& concept_ids, ForwardBuffers* buf) const {
  buf->generation = 0;  // stays empty if a lookup below throws
  const int m = static_cast<int>(concept_ids.size());
  const int f = kcfg_.cnn_filters;
  const int d = config_.embed_dim;
  float* w_enc = nn::SizeBuffer(&buf->w_enc, static_cast<size_t>(m) * f);
  EncodeSideForward(concept_ids, *concept_cnn_, w_enc, buf);
  att_w1_->Forward(m, w_enc,
                   nn::SizeBuffer(&buf->att_w, static_cast<size_t>(m) * f),
                   nn::Activation::kNone, &buf->nn);

  // Knowledge sequence kw: word embeddings, then tanh(gloss_proj(gloss))
  // and linked-class embeddings when knowledge is on.
  std::vector<std::string> tokens;
  std::vector<int> classes;
  if (kcfg_.use_knowledge) {
    tokens = vocab_.Decode(concept_ids);
    classes = res_.concept_classes(tokens);
    for (int cid : classes) {
      ALICOCO_CHECK(cid >= 0 && cid < res_.num_classes);
    }
  }
  const int rows = kcfg_.use_knowledge
                       ? 2 * m + static_cast<int>(classes.size())
                       : m;
  const size_t block = static_cast<size_t>(rows) * d;
  float* kw = nn::SizeBuffer(&buf->kw, block);
  emb_->Forward(concept_ids, kw);
  if (kcfg_.use_knowledge) {
    const int gdim = res_.gloss_encoder->dim();
    const size_t gsize = static_cast<size_t>(m) * gdim;
    float* gloss = nn::SizeBuffer(&buf->gloss, gsize);
    std::fill(gloss, gloss + gsize, 0.0f);
    for (int w = 0; w < m; ++w) {
      auto words = res_.gloss_lookup(tokens[static_cast<size_t>(w)]);
      if (words.empty()) continue;
      auto vec = res_.gloss_encoder->Encode(words);
      ALICOCO_DCHECK_EQ(vec.size(), static_cast<size_t>(gdim));
      std::copy(vec.begin(), vec.end(), gloss + static_cast<size_t>(w) * gdim);
    }
    float* gloss_rows = kw + static_cast<size_t>(m) * d;
    gloss_proj_->Forward(m, gloss, gloss_rows, nn::Activation::kNone,
                         &buf->nn);
    nn::TanhInPlace(static_cast<size_t>(m) * d, gloss_rows);
    class_emb_->Forward(classes, kw + 2 * static_cast<size_t>(m) * d);
  }

  float* proj = nn::SizeBuffer(&buf->kw_proj, pyramid_.size() * block);
  std::fill(proj, proj + pyramid_.size() * block, 0.0f);
  for (size_t k = 0; k < pyramid_.size(); ++k) {
    float* pk = proj + k * block;
    if (pyramid_q_.empty()) {
      nn::kernels::GemmAccum(rows, d, d, kw, pyramid_[k]->value.data(), pk);
    } else {
      nn::quant::GemmTransW(rows, kw, *pyramid_q_[k], pk, &buf->nn.q8);
    }
  }
  buf->ids = concept_ids;
  buf->kw_rows = rows;
  buf->generation = weights_generation();
}

float KnowledgeMatcher::ForwardLogit(const std::vector<int>& concept_ids,
                                     const std::vector<int>& item_ids) const {
  thread_local ForwardBuffers buf;
  if (buf.generation != weights_generation() || buf.ids != concept_ids) {
    EncodeConceptForward(concept_ids, &buf);
  }
  const int m = static_cast<int>(concept_ids.size());
  const int l = static_cast<int>(item_ids.size());
  const int f = kcfg_.cnn_filters;
  const int d = config_.embed_dim;
  const int rows = buf.kw_rows;
  const int hidden = config_.hidden;
  const bool attention = kcfg_.use_attention_channel;
  float* head_in = nn::SizeBuffer(
      &buf.head_in, (attention ? 3 * f : 0) + static_cast<size_t>(hidden));

  if (attention) {
    float* t_enc = nn::SizeBuffer(&buf.t_enc, static_cast<size_t>(l) * f);
    EncodeSideForward(item_ids, *item_cnn_, t_enc, &buf);
    float* att_t = nn::SizeBuffer(&buf.att_t, static_cast<size_t>(l) * f);
    att_w2_->Forward(l, t_enc, att_t, nn::Activation::kNone, &buf.nn);
    // Two-way additive attention (Eq. 11-14, Graph::AdditiveAttention).
    const float* v = att_v_->value.data();
    float* att = nn::SizeBuffer(&buf.att, static_cast<size_t>(m) * l);
    for (int i = 0; i < m; ++i) {
      const float* a = buf.att_w.data() + static_cast<size_t>(i) * f;
      for (int j = 0; j < l; ++j) {
        const float* b = att_t + static_cast<size_t>(j) * f;
        float acc = 0.0f;
        for (int k = 0; k < f; ++k) acc += v[k] * std::tanh(a[k] + b[k]);
        att[static_cast<size_t>(i) * l + j] = acc;
      }
    }
    float* alpha_w = nn::SizeBuffer(&buf.alpha_w, m);
    for (int i = 0; i < m; ++i) {
      nn::SumRows(l, 1, 1, att + static_cast<size_t>(i) * l, alpha_w + i);
    }
    nn::SoftmaxRow(m, alpha_w);
    float* alpha_t = nn::SizeBuffer(&buf.alpha_t, l);
    nn::SumRows(m, l, l, att, alpha_t);
    nn::SoftmaxRow(l, alpha_t);
    // [c; i; c * i] of the head input (Eq. 18).
    float* c = head_in;
    float* it = head_in + f;
    std::fill(head_in, head_in + 2 * f, 0.0f);
    nn::kernels::GemmAccum(1, m, f, alpha_w, buf.w_enc.data(), c);
    nn::kernels::GemmAccum(1, l, f, alpha_t, t_enc, it);
    for (int j = 0; j < f; ++j) head_in[2 * f + j] = c[j] * it[j];
  }

  // K-layer bilinear matching pyramid (Eq. 16-17) against the cached
  // kw * W_k: grid pool plus best-alignment statistics per layer.
  float* t_words = nn::SizeBuffer(&buf.t_words, static_cast<size_t>(l) * d);
  emb_->Forward(item_ids, t_words);
  const int grid = kcfg_.pool_grid;
  const int layer_feats = grid * grid + 4;
  float* feats =
      nn::SizeBuffer(&buf.feats, pyramid_.size() * layer_feats);
  const size_t cells = static_cast<size_t>(rows) * l;
  float* match = nn::SizeBuffer(&buf.match, cells);
  float* col_best = nn::SizeBuffer(&buf.col_best, l);
  float* row_best = nn::SizeBuffer(&buf.row_best, rows);
  for (size_t k = 0; k < pyramid_.size(); ++k) {
    const float* proj =
        buf.kw_proj.data() + k * static_cast<size_t>(rows) * d;
    std::fill(match, match + cells, 0.0f);
    nn::kernels::GemmTransBAccum(rows, d, l, proj, t_words, match);
    nn::MaxRows(rows, l, l, match, col_best);
    for (int r = 0; r < rows; ++r) {
      nn::MaxRows(l, 1, 1, match + static_cast<size_t>(r) * l, row_best + r);
    }
    float* out = feats + k * layer_feats;
    GridPoolForward(match, rows, l, grid, out);
    float* stats = out + grid * grid;
    nn::MaxRows(l, 1, 1, col_best, stats);
    nn::MeanRows(l, 1, 1, col_best, stats + 1);
    nn::MaxRows(rows, 1, 1, row_best, stats + 2);
    nn::MeanRows(rows, 1, 1, row_best, stats + 3);
  }
  float* ci = head_in + (attention ? 3 * f : 0);
  pyramid_mlp_->Forward(1, feats, ci, &buf.nn);
  nn::TanhInPlace(hidden, ci);

  float logit = 0.0f;
  head_->Forward(1, head_in, &logit, &buf.nn);
  return logit;
}

}  // namespace alicoco::matching
