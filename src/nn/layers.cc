#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"

namespace alicoco::nn {

void SumRows(int rows, int cols, int stride, const float* x, float* out) {
  std::fill(out, out + cols, 0.0f);
  for (int r = 0; r < rows; ++r) {
    const float* row = x + static_cast<size_t>(r) * stride;
    for (int j = 0; j < cols; ++j) out[j] += row[j];
  }
}

void MeanRows(int rows, int cols, int stride, const float* x, float* out) {
  SumRows(rows, cols, stride, x, out);
  const float inv = 1.0f / static_cast<float>(rows);
  for (int j = 0; j < cols; ++j) out[j] *= inv;
}

void MaxRows(int rows, int cols, int stride, const float* x, float* out) {
  ALICOCO_DCHECK(rows > 0);
  for (int j = 0; j < cols; ++j) {
    float best = x[j];
    for (int r = 1; r < rows; ++r) {
      const float v = x[static_cast<size_t>(r) * stride + j];
      if (v > best) best = v;
    }
    out[j] = best;
  }
}

void SoftmaxRow(int n, float* x) {
  float mx = x[0];
  for (int j = 1; j < n; ++j) mx = std::max(mx, x[j]);
  float total = 0.0f;
  for (int j = 0; j < n; ++j) {
    x[j] = std::exp(x[j] - mx);
    total += x[j];
  }
  for (int j = 0; j < n; ++j) x[j] /= total;
}

void TanhInPlace(size_t n, float* x) {
  for (size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

Linear::Linear(ParameterStore* store, const std::string& name, int in_dim,
               int out_dim, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  w_ = store->Create(name + ".W", in_dim, out_dim,
                     ParameterStore::Init::kXavier, rng);
  b_ = store->Create(name + ".b", 1, out_dim, ParameterStore::Init::kZero,
                     nullptr);
}

Graph::Var Linear::Apply(Graph* g, Graph::Var x) const {
  return g->Affine(x, w_, b_);
}

Graph::Var Linear::ApplyTanh(Graph* g, Graph::Var x) const {
  return g->AffineTanh(x, w_, b_);
}

Graph::Var Linear::ApplyRelu(Graph* g, Graph::Var x) const {
  return g->AffineRelu(x, w_, b_);
}

void Linear::Forward(int rows, const float* x, float* y, Activation act,
                     ForwardScratch* scratch) const {
  // Zeroed output + accumulating GEMM + fused bias, as in Graph::AffineAct.
  std::fill(y, y + static_cast<size_t>(rows) * out_dim_, 0.0f);
  if (qw_ != nullptr) {
    quant::GemmTransW(rows, x, *qw_, y, &scratch->q8);
  } else {
    kernels::GemmAccum(rows, in_dim_, out_dim_, x, w_->value.data(), y);
  }
  const float* bias = b_->value.data();
  switch (act) {
    case Activation::kTanh:
      kernels::AddBiasTanh(rows, out_dim_, y, bias, y);
      break;
    case Activation::kRelu:
      kernels::AddBiasRelu(rows, out_dim_, y, bias, y);
      break;
    case Activation::kNone:
      kernels::AddBias(rows, out_dim_, y, bias, y);
      break;
  }
}

void Linear::AppendQuantPlan(quant::QuantPlan* plan) const {
  plan->push_back({w_, /*transpose=*/true});
}

void Linear::AttachQuantized(const quant::QuantizedStore& store) {
  const quant::QuantizedTensor* qw = store.FindQuantized(w_->name);
  ALICOCO_CHECK(qw != nullptr)
      << "quantized store has no tensor for " << w_->name;
  // Stored transposed: out x in.
  ALICOCO_CHECK(qw->rows() == out_dim_ && qw->cols() == in_dim_)
      << "quantized shape mismatch for " << w_->name << ": want "
      << out_dim_ << "x" << in_dim_ << " (transposed), got " << qw->rows()
      << "x" << qw->cols();
  qw_ = qw;
}

Embedding::Embedding(ParameterStore* store, const std::string& name,
                     int vocab, int dim, Rng* rng)
    : vocab_(vocab), dim_(dim) {
  table_ = store->Create(name + ".table", vocab, dim,
                         ParameterStore::Init::kGaussian, rng, 0.08f);
}

Graph::Var Embedding::Lookup(Graph* g, const std::vector<int>& ids) const {
  return g->EmbeddingLookup(table_, ids);
}

void Embedding::CopyRow(int id, float* out) const {
  ALICOCO_CHECK(id >= 0 && id < vocab_) << "embedding id out of range: "
                                        << id;
  if (qt_ != nullptr) {
    qt_->DequantizeRow(id, out);
    return;
  }
  const float* row = table_->value.Row(id);
  std::copy(row, row + dim_, out);
}

void Embedding::Forward(const std::vector<int>& ids, float* out) const {
  for (size_t i = 0; i < ids.size(); ++i) CopyRow(ids[i], out + i * dim_);
}

void Embedding::LoadPretrained(const std::vector<float>& table) {
  ALICOCO_CHECK(table.size() == table_->value.size())
      << "pretrained table size mismatch";
  std::copy(table.begin(), table.end(), table_->value.data());
}

void Embedding::AppendQuantPlan(quant::QuantPlan* plan) const {
  plan->push_back({table_, /*transpose=*/false});
}

void Embedding::AttachQuantized(const quant::QuantizedStore& store) {
  const quant::QuantizedTensor* qt = store.FindQuantized(table_->name);
  ALICOCO_CHECK(qt != nullptr)
      << "quantized store has no tensor for " << table_->name;
  ALICOCO_CHECK(qt->rows() == vocab_ && qt->cols() == dim_)
      << "quantized shape mismatch for " << table_->name << ": want "
      << vocab_ << "x" << dim_ << ", got " << qt->rows() << "x"
      << qt->cols();
  qt_ = qt;
}

Conv1D::Conv1D(ParameterStore* store, const std::string& name, int in_dim,
               int filters, int window, Rng* rng)
    : window_(window), proj_(store, name, in_dim * window, filters, rng) {
  ALICOCO_CHECK(window >= 1 && window % 2 == 1) << "Conv1D window must be odd";
}

Graph::Var Conv1D::Apply(Graph* g, Graph::Var x) const {
  return proj_.ApplyRelu(g, g->ConcatWindow(x, window_));
}

void Conv1D::Forward(int rows, const float* x, float* y,
                     ForwardScratch* scratch) const {
  // Graph::ConcatWindow over a raw buffer: zero-padded borders.
  const int d = proj_.in_dim() / window_;
  const int half = window_ / 2;
  const size_t width = static_cast<size_t>(proj_.in_dim());
  float* windows = SizeBuffer(&scratch->windows, rows * width);
  std::fill(windows, windows + rows * width, 0.0f);
  for (int i = 0; i < rows; ++i) {
    for (int w = -half; w <= half; ++w) {
      const int src = i + w;
      if (src < 0 || src >= rows) continue;
      std::copy(x + static_cast<size_t>(src) * d,
                x + static_cast<size_t>(src + 1) * d,
                windows + i * width + static_cast<size_t>(w + half) * d);
    }
  }
  proj_.Forward(rows, windows, y, Activation::kRelu, scratch);
}

void Conv1D::AppendQuantPlan(quant::QuantPlan* plan) const {
  proj_.AppendQuantPlan(plan);
}

void Conv1D::AttachQuantized(const quant::QuantizedStore& store) {
  proj_.AttachQuantized(store);
}

SelfAttention::SelfAttention(ParameterStore* store, const std::string& name,
                             int dim, Rng* rng, bool residual)
    : dim_(dim),
      residual_(residual),
      q_(store, name + ".q", dim, dim, rng),
      k_(store, name + ".k", dim, dim, rng),
      v_(store, name + ".v", dim, dim, rng) {}

Graph::Var SelfAttention::Apply(Graph* g, Graph::Var x) const {
  Graph::Var q = q_.Apply(g, x);
  Graph::Var k = k_.Apply(g, x);
  Graph::Var v = v_.Apply(g, x);
  float scale = 1.0f / std::sqrt(static_cast<float>(dim_));
  Graph::Var scores = g->ScalarMul(g->MatMulTransB(q, k), scale);
  Graph::Var attended = g->MatMul(g->SoftmaxRows(scores), v);
  return residual_ ? g->Add(x, attended) : attended;
}

Mlp::Mlp(ParameterStore* store, const std::string& name,
         const std::vector<int>& dims, Rng* rng) {
  ALICOCO_CHECK(dims.size() >= 2) << "Mlp needs at least {in, out}";
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(store, name + ".fc" + std::to_string(i), dims[i],
                         dims[i + 1], rng);
  }
}

Graph::Var Mlp::Apply(Graph* g, Graph::Var x) const {
  Graph::Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = i + 1 < layers_.size() ? layers_[i].ApplyTanh(g, h)
                               : layers_[i].Apply(g, h);
  }
  return h;
}

void Mlp::Forward(int rows, const float* x, float* y,
                  ForwardScratch* scratch) const {
  const float* h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Linear& layer = layers_[i];
    if (i + 1 == layers_.size()) {
      layer.Forward(rows, h, y, Activation::kNone, scratch);
      break;
    }
    float* next = SizeBuffer(&scratch->hidden[i % 2],
                             static_cast<size_t>(rows) * layer.out_dim());
    layer.Forward(rows, h, next, Activation::kTanh, scratch);
    h = next;
  }
}

void Mlp::AppendQuantPlan(quant::QuantPlan* plan) const {
  for (const Linear& layer : layers_) layer.AppendQuantPlan(plan);
}

void Mlp::AttachQuantized(const quant::QuantizedStore& store) {
  for (Linear& layer : layers_) layer.AttachQuantized(store);
}

void Mlp::DetachQuantized() {
  for (Linear& layer : layers_) layer.DetachQuantized();
}

}  // namespace alicoco::nn
