// MatchPyramid baseline (Pang et al. 2016, simplified): a word-word
// interaction matrix from trainable embeddings, dynamically max-pooled to a
// fixed grid and scored by an MLP.

#ifndef ALICOCO_MATCHING_MATCH_PYRAMID_H_
#define ALICOCO_MATCHING_MATCH_PYRAMID_H_

#include "matching/neural_base.h"

namespace alicoco::matching {

class MatchPyramidMatcher : public NeuralMatcherBase {
 public:
  MatchPyramidMatcher(const NeuralMatcherConfig& config,
                      const text::SkipgramModel* embeddings,
                      const text::Vocabulary* corpus_vocab)
      : NeuralMatcherBase(config, embeddings, corpus_vocab) {}

  std::string name() const override { return "MatchPyramid"; }

 protected:
  void BuildModel() override;
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<int>& concept_ids,
                       const std::vector<int>& item_ids, bool train,
                       Rng* rng) const override;
  float ForwardLogit(const std::vector<int>& concept_ids,
                     const std::vector<int>& item_ids) const override;
  void CollectQuantPlan(nn::quant::QuantPlan* plan) const override;
  void AttachQuantizedWeights(const nn::quant::QuantizedStore& store)
      override;
  void DetachQuantizedWeights() override;

 private:
  static constexpr int kGrid = 3;  ///< pooled grid is kGrid x kGrid

  std::unique_ptr<nn::Embedding> emb_;
  std::unique_ptr<nn::Mlp> head_;
};

/// Max-pools an arbitrary m x l matrix node to a fixed grid x grid vector
/// (1 x grid*grid). Shared with the knowledge matcher's pyramid layers.
nn::Graph::Var DynamicGridPool(nn::Graph* g, nn::Graph::Var matrix, int grid);

/// Tape-free DynamicGridPool over a row-major rows x cols matrix: writes
/// the same grid*grid values to `out`.
void GridPoolForward(const float* matrix, int rows, int cols, int grid,
                     float* out);

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_MATCH_PYRAMID_H_
