#include "matching/match_pyramid.h"

#include <algorithm>

#include "nn/kernels.h"

namespace alicoco::matching {

nn::Graph::Var DynamicGridPool(nn::Graph* g, nn::Graph::Var matrix,
                               int grid) {
  int rows = g->Value(matrix).rows();
  int cols = g->Value(matrix).cols();
  int gr = std::min(grid, rows);
  int gc = std::min(grid, cols);
  std::vector<nn::Graph::Var> cells;
  cells.reserve(static_cast<size_t>(grid) * grid);
  for (int r = 0; r < grid; ++r) {
    // Degenerate inputs (fewer rows/cols than grid) reuse the last region.
    int r0 = std::min(r, gr - 1) * rows / gr;
    int r1 = (std::min(r, gr - 1) + 1) * rows / gr;
    nn::Graph::Var row_slice = g->SliceRows(matrix, r0, std::max(1, r1 - r0));
    for (int c = 0; c < grid; ++c) {
      int c0 = std::min(c, gc - 1) * cols / gc;
      int c1 = (std::min(c, gc - 1) + 1) * cols / gc;
      nn::Graph::Var cell =
          g->SliceCols(row_slice, c0, std::max(1, c1 - c0));
      // Max over the region: max over rows then over the resulting row.
      nn::Graph::Var m = g->MaxRows(cell);                 // 1 x w
      cells.push_back(g->MaxRows(g->Transpose(m)));        // 1 x 1
    }
  }
  return g->ConcatCols(cells);
}

void GridPoolForward(const float* matrix, int rows, int cols, int grid,
                     float* out) {
  int gr = std::min(grid, rows);
  int gc = std::min(grid, cols);
  for (int r = 0; r < grid; ++r) {
    int r0 = std::min(r, gr - 1) * rows / gr;
    int r1 = (std::min(r, gr - 1) + 1) * rows / gr;
    int nr = std::max(1, r1 - r0);
    for (int c = 0; c < grid; ++c) {
      int c0 = std::min(c, gc - 1) * cols / gc;
      int c1 = (std::min(c, gc - 1) + 1) * cols / gc;
      int nc = std::max(1, c1 - c0);
      // Per-column max over the region's rows, then the first largest of
      // those, as the two MaxRows nodes of DynamicGridPool.
      const float* cell = matrix + static_cast<size_t>(r0) * cols + c0;
      float best = 0.0f;
      for (int j = 0; j < nc; ++j) {
        float col_max;
        nn::MaxRows(nr, 1, cols, cell + j, &col_max);
        if (j == 0 || col_max > best) best = col_max;
      }
      *out++ = best;
    }
  }
}

void MatchPyramidMatcher::BuildModel() {
  emb_ = MakeEmbedding("emb");
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{kGrid * kGrid, config_.hidden, 1},
      &init_rng_);
}

void MatchPyramidMatcher::CollectQuantPlan(
    nn::quant::QuantPlan* plan) const {
  emb_->AppendQuantPlan(plan);
  head_->AppendQuantPlan(plan);
}

void MatchPyramidMatcher::AttachQuantizedWeights(
    const nn::quant::QuantizedStore& store) {
  emb_->AttachQuantized(store);
  head_->AttachQuantized(store);
}

void MatchPyramidMatcher::DetachQuantizedWeights() {
  emb_->DetachQuantized();
  head_->DetachQuantized();
}

nn::Graph::Var MatchPyramidMatcher::Logit(nn::Graph* g,
                                          const std::vector<int>& concept_ids,
                                          const std::vector<int>& item_ids,
                                          bool train, Rng* rng) const {
  nn::Graph::Var c = emb_->Lookup(g, concept_ids);
  nn::Graph::Var i = emb_->Lookup(g, item_ids);
  c = g->Dropout(c, 0.1f, train, rng);
  // Interaction matrix: dot products of every word pair.
  nn::Graph::Var interaction = g->MatMulTransB(c, i);  // m x l
  return head_->Apply(g, DynamicGridPool(g, interaction, kGrid));
}

float MatchPyramidMatcher::ForwardLogit(
    const std::vector<int>& concept_ids,
    const std::vector<int>& item_ids) const {
  struct Buffers {
    std::vector<float> concept_words, item_words, interaction;
    nn::ForwardScratch nn;
  };
  thread_local Buffers buf;
  const int d = config_.embed_dim;
  const int m = static_cast<int>(concept_ids.size());
  const int l = static_cast<int>(item_ids.size());
  float* c = nn::SizeBuffer(&buf.concept_words, concept_ids.size() * d);
  emb_->Forward(concept_ids, c);
  float* i = nn::SizeBuffer(&buf.item_words, item_ids.size() * d);
  emb_->Forward(item_ids, i);
  const size_t cells = static_cast<size_t>(m) * l;
  float* interaction = nn::SizeBuffer(&buf.interaction, cells);
  std::fill(interaction, interaction + cells, 0.0f);
  nn::kernels::GemmTransBAccum(m, d, l, c, i, interaction);
  float pooled[kGrid * kGrid];
  GridPoolForward(interaction, m, l, kGrid, pooled);
  float logit = 0.0f;
  head_->Forward(1, pooled, &logit, &buf.nn);
  return logit;
}

}  // namespace alicoco::matching
