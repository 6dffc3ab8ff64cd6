// Shared machinery for the trainable matchers: vocabulary construction over
// the dataset, pretrained-initialized embedding tables, the BCE training
// loop, and the two ways a subclass computes its pair logit:
//
//   Logit         builds the model on an autodiff Graph; training only.
//   ForwardLogit  the same arithmetic over per-thread scratch buffers with
//                 no tape, at fp32 or through the attached int8 / fp16
//                 weights; every Score goes through it. At fp32 it makes
//                 the same nn::kernels calls in the same order as Logit,
//                 so scores are bit-identical to sigmoid(Logit) on a given
//                 kernel tier.

#ifndef ALICOCO_MATCHING_NEURAL_BASE_H_
#define ALICOCO_MATCHING_NEURAL_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "matching/dataset.h"
#include "nn/layers.h"
#include "nn/quant.h"
#include "obs/metrics.h"
#include "text/skipgram.h"
#include "text/vocabulary.h"

namespace alicoco::matching {

/// Hyperparameters shared by the neural matchers.
struct NeuralMatcherConfig {
  int embed_dim = 20;
  int hidden = 16;
  int epochs = 3;
  float lr = 0.01f;
  int batch_size = 16;
  uint64_t seed = 61;
};

/// Base for matchers trained with sigmoid cross-entropy over pair logits.
class NeuralMatcherBase : public Matcher {
 public:
  /// `embeddings`/`corpus_vocab` may be null: embeddings then start random.
  NeuralMatcherBase(const NeuralMatcherConfig& config,
                    const text::SkipgramModel* embeddings,
                    const text::Vocabulary* corpus_vocab);

  void Train(const MatchingDataset& dataset) final;

  double Score(const std::vector<std::string>& concept_tokens,
               const std::vector<std::string>& item_tokens,
               int64_t item_id) const final;

  /// When set, every Score() call records its latency (microseconds) into
  /// `histogram`; pass nullptr to detach. The histogram must outlive the
  /// matcher (registry-owned histograms always do).
  void set_score_latency_histogram(obs::Histogram* histogram) {
    score_latency_us_ = histogram;
  }

  // ---- quantized inference ----
  // After Train (or LoadQuantizedInference), Score can run through int8 or
  // fp16 weights: weight matrices and embedding tables go through the
  // quantized kernels, biases and other small parameters stay fp32.
  // Training always uses the fp32 parameters.
  // Accuracy tolerances vs fp32 are documented in DESIGN.md §5 and
  // enforced by tests/matching/quantized_matching_test.cc.

  /// Quantizes the trained fp32 weights in place and routes Score through
  /// them. `mode` kNone reverts to fp32 scoring exactly (the fp32
  /// parameters are never modified).
  void EnableQuantizedInference(nn::quant::QuantMode mode);

  /// Persists the active quantized weights (requires a prior
  /// EnableQuantizedInference with a non-kNone mode).
  [[nodiscard]] Status SaveQuantized(const std::string& path) const;

  /// Loads quantized weights saved by SaveQuantized into this matcher and
  /// enables quantized scoring. The matcher must have been trained (the
  /// vocabulary and layer shapes come from training data); the fp32
  /// passthrough entries in the file overwrite the matching parameters so
  /// biases match the checkpoint.
  [[nodiscard]] Status LoadQuantizedInference(const std::string& path);

  /// Active quantization mode (kNone = fp32 scoring).
  nn::quant::QuantMode quantized_mode() const { return qmode_; }

 protected:
  /// Subclass hook: report every parameter to quantize (weight matrices
  /// and embedding tables, not biases).
  virtual void CollectQuantPlan(nn::quant::QuantPlan* plan) const = 0;
  /// Subclass hook: bind layers to the quantized tensors of `store`.
  virtual void AttachQuantizedWeights(const nn::quant::QuantizedStore& store)
      = 0;
  /// Subclass hook: revert layers to fp32 parameters.
  virtual void DetachQuantizedWeights() = 0;
  /// Builds the model's layers once the vocabulary is known.
  virtual void BuildModel() = 0;

  /// Pair logit (1x1) on the tape, for training. `train` enables dropout
  /// in subclasses. Always reads the fp32 parameters.
  virtual nn::Graph::Var Logit(nn::Graph* g,
                               const std::vector<int>& concept_ids,
                               const std::vector<int>& item_ids, bool train,
                               Rng* rng) const = 0;

  /// Tape-free inference logit: Logit(train=false) over raw buffers,
  /// through the quantized weights when attached. Thread-safe (const,
  /// per-thread scratch). `concept_ids` / `item_ids` are non-empty.
  virtual float ForwardLogit(const std::vector<int>& concept_ids,
                             const std::vector<int>& item_ids) const = 0;

  /// Process-unique id of the current weights: a fresh value after Train,
  /// EnableQuantizedInference and LoadQuantizedInference, never reused by
  /// any matcher. Keys per-thread caches of weight-derived values.
  uint64_t weights_generation() const { return weights_generation_; }

  /// Hook: subclasses may capture extra per-example context (the knowledge
  /// matcher resolves concept-linked primitives from tokens).
  virtual void ObserveVocabulary() {}

  /// Creates an embedding layer initialized from the pretrained table where
  /// token strings overlap.
  std::unique_ptr<nn::Embedding> MakeEmbedding(const std::string& name);

  std::vector<int> Encode(const std::vector<std::string>& tokens) const;
  /// Encode into `ids` (reusing its capacity).
  void EncodeInto(const std::vector<std::string>& tokens,
                  std::vector<int>* ids) const;

  NeuralMatcherConfig config_;
  const text::SkipgramModel* pretrained_;
  const text::Vocabulary* corpus_vocab_;
  text::Vocabulary vocab_;
  Rng init_rng_;
  nn::ParameterStore store_;
  bool trained_ = false;
  obs::Histogram* score_latency_us_ = nullptr;
  nn::quant::QuantizedStore qstore_;  ///< layers hold pointers into this
  nn::quant::QuantMode qmode_ = nn::quant::QuantMode::kNone;

 private:
  /// Gives the weights a fresh process-unique generation.
  void BumpWeightsGeneration();

  uint64_t weights_generation_ = 0;  ///< 0 until trained
};

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_NEURAL_BASE_H_
