// Reusable neural layers, each with two entry points:
//
//   Apply / Lookup  records the layer on an autodiff Graph (training, and
//                   any caller that needs gradients); always fp32.
//   Forward         computes the same values over caller-owned raw buffers
//                   with no tape: inference only. It makes the same
//                   nn::kernels calls in the same order as Apply, so fp32
//                   results are bit-identical to the tape on a given
//                   kernel tier.
//
// Quantized inference: each layer that owns weight matrices can (a) report
// which parameters to quantize via AppendQuantPlan, (b) bind to the
// quantized tensors of a QuantizedStore via AttachQuantized — after which
// Forward reads the int8 / fp16 weights (Apply keeps using fp32) — and
// (c) revert to the fp32 parameters via DetachQuantized. Bias vectors stay
// fp32 (they ride the store's passthrough section). Attach state is plain
// pointers into the store, so the store must outlive the attached layer.

#ifndef ALICOCO_NN_LAYERS_H_
#define ALICOCO_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/graph.h"
#include "nn/quant.h"

namespace alicoco::nn {

/// Activation fused into Linear::Forward.
enum class Activation { kNone, kTanh, kRelu };

/// Buffers the Forward passes reuse between calls. Grown on demand and
/// never shrunk, so a warm (e.g. thread_local) instance makes a forward
/// pass allocation-free. A Forward's own input and output must not live in
/// its scratch.
struct ForwardScratch {
  std::vector<float> windows;    ///< Conv1D: windowed input rows
  std::vector<float> hidden[2];  ///< Mlp: ping-pong hidden activations
  quant::ActivationScratch q8;   ///< int8 activation codes
};

/// Sizes `buf` to `n` floats without giving back capacity and returns its
/// data; contents are unspecified.
inline float* SizeBuffer(std::vector<float>* buf, size_t n) {
  buf->resize(n);
  return buf->data();
}

// ---- tape-free counterparts of Graph ops over raw row-major buffers ----
// Each repeats its Graph op's arithmetic in the same order, so results
// are bit-identical. `stride` is the distance between consecutive rows.

/// Graph::SumRows: out[j] = sum over r of x[r][j], for rows >= 1.
void SumRows(int rows, int cols, int stride, const float* x, float* out);
/// Graph::MeanRows: SumRows scaled by 1/rows.
void MeanRows(int rows, int cols, int stride, const float* x, float* out);
/// Graph::MaxRows: out[j] = max over r of x[r][j], for rows >= 1.
void MaxRows(int rows, int cols, int stride, const float* x, float* out);
/// Graph::SoftmaxRows on one row of n >= 1 values, in place.
void SoftmaxRow(int n, float* x);
/// Graph::Tanh, in place.
void TanhInPlace(size_t n, float* x);

/// Affine map: x (R x in) -> x*W + b (R x out).
class Linear {
 public:
  Linear(ParameterStore* store, const std::string& name, int in_dim,
         int out_dim, Rng* rng);

  Graph::Var Apply(Graph* g, Graph::Var x) const;
  /// Fused tanh(x*W + b) — no intermediate pre-activation node.
  Graph::Var ApplyTanh(Graph* g, Graph::Var x) const;
  /// Fused relu(x*W + b).
  Graph::Var ApplyRelu(Graph* g, Graph::Var x) const;

  /// Tape-free y (rows x out) = act(x (rows x in) * W + b), reading the
  /// quantized W when one is attached. Overwrites `y`.
  void Forward(int rows, const float* x, float* y, Activation act,
               ForwardScratch* scratch) const;

  /// Adds W to `plan` (stored transposed: consumed as x * W^T). The bias
  /// stays fp32.
  void AppendQuantPlan(quant::QuantPlan* plan) const;
  /// Binds Forward to the quantized copy of W in `store` (CHECKs that the
  /// store has it with the right shape).
  void AttachQuantized(const quant::QuantizedStore& store);
  /// Reverts Forward to the fp32 parameter.
  void DetachQuantized() { qw_ = nullptr; }

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  int in_dim_, out_dim_;
  Parameter* w_;
  Parameter* b_;
  const quant::QuantizedTensor* qw_ = nullptr;  ///< W^T when attached
};

/// Trainable embedding table (vocab x dim).
class Embedding {
 public:
  Embedding(ParameterStore* store, const std::string& name, int vocab,
            int dim, Rng* rng);

  /// Gathers rows by id: len(ids) x dim.
  Graph::Var Lookup(Graph* g, const std::vector<int>& ids) const;

  /// Tape-free gather of row `id` into out[0, dim), dequantizing when a
  /// quantized table is attached.
  void CopyRow(int id, float* out) const;
  /// CopyRow for every id: out is len(ids) x dim.
  void Forward(const std::vector<int>& ids, float* out) const;

  /// Overwrites the table with pre-trained vectors (row-major vocab x dim).
  void LoadPretrained(const std::vector<float>& table);

  /// Adds the table to `plan` (stored as-is: rows are gathered, not
  /// contracted).
  void AppendQuantPlan(quant::QuantPlan* plan) const;
  /// Binds Forward to the quantized table in `store`.
  void AttachQuantized(const quant::QuantizedStore& store);
  void DetachQuantized() { qt_ = nullptr; }

  int dim() const { return dim_; }
  int vocab() const { return vocab_; }
  Parameter* parameter() const { return table_; }

 private:
  int vocab_, dim_;
  Parameter* table_;
  const quant::QuantizedTensor* qt_ = nullptr;
};

/// 1-D convolution over sequence rows with ReLU: T x D -> T x filters.
/// Implemented as windowed concat (odd window, zero padding) + affine.
class Conv1D {
 public:
  Conv1D(ParameterStore* store, const std::string& name, int in_dim,
         int filters, int window, Rng* rng);

  Graph::Var Apply(Graph* g, Graph::Var x) const;

  /// Tape-free Apply: x (rows x in) -> y (rows x filters). Overwrites `y`.
  void Forward(int rows, const float* x, float* y,
               ForwardScratch* scratch) const;

  void AppendQuantPlan(quant::QuantPlan* plan) const;
  void AttachQuantized(const quant::QuantizedStore& store);
  void DetachQuantized() { proj_.DetachQuantized(); }

  int filters() const { return proj_.out_dim(); }
  int window() const { return window_; }

 private:
  int window_;
  Linear proj_;
};

/// Single-head scaled dot-product self-attention: T x d -> T x d,
/// optionally with a residual connection.
class SelfAttention {
 public:
  SelfAttention(ParameterStore* store, const std::string& name, int dim,
                Rng* rng, bool residual = true);

  Graph::Var Apply(Graph* g, Graph::Var x) const;

 private:
  int dim_;
  bool residual_;
  Linear q_, k_, v_;
};

/// Fully-connected stack with tanh hidden activations and a linear head.
class Mlp {
 public:
  /// `dims` = {in, hidden..., out}; at least {in, out}.
  Mlp(ParameterStore* store, const std::string& name,
      const std::vector<int>& dims, Rng* rng);

  Graph::Var Apply(Graph* g, Graph::Var x) const;

  /// Tape-free Apply: x (rows x in) -> y (rows x out). Overwrites `y`.
  void Forward(int rows, const float* x, float* y,
               ForwardScratch* scratch) const;

  void AppendQuantPlan(quant::QuantPlan* plan) const;
  void AttachQuantized(const quant::QuantizedStore& store);
  void DetachQuantized();

  int out_dim() const { return layers_.back().out_dim(); }

 private:
  std::vector<Linear> layers_;
};

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_LAYERS_H_
