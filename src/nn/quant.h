// Quantized weight storage for the inference tier.
//
// Two storage formats, both lossless to reload (what is serialized is the
// quantized representation itself, so save -> load reproduces scores
// bit-for-bit):
//
//   kInt8 — blockwise Q8: each row is split into 32-lane blocks, every
//     block stores 32 int8 codes plus one float scale (absmax / 127).
//     Values are clamped to [-127, 127] so the AVX2 maddubs pairing in the
//     int8 dot kernel cannot saturate. Rows are padded to whole blocks with
//     zero codes (zeros contribute nothing to the dot).
//   kFp16 — IEEE binary16 codes, one per weight, round-to-nearest-even.
//
// `QuantizedTensor` holds one weight matrix in either format. Matrices
// destined for x * W^T style products (Linear weights) are quantized
// TRANSPOSED — (out x in) with the contraction dimension contiguous per
// row — so the quantized GEMM reads both operands along k.
//
// `QuantizedStore` is the quantized counterpart of a ParameterStore: the
// tensors a model's QuantPlan selected, plus fp32 passthrough copies of
// everything else (biases, vectors, scalars). nn/serialize.h persists it;
// layers attach to entries by parameter name for inference.
//
// Accuracy tolerances (enforced end-to-end in tests/matching): int8 matcher
// scores within 0.05 absolute of fp32 and AUC within 0.02; fp16 scores
// within 5e-3. See DESIGN.md §5.

#ifndef ALICOCO_NN_QUANT_H_
#define ALICOCO_NN_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/graph.h"
#include "nn/kernels.h"
#include "nn/tensor.h"

namespace alicoco::nn::quant {

enum class QuantMode {
  kNone = 0,  ///< fp32 — quantization disabled
  kInt8 = 1,  ///< blockwise int8, one float scale per 32 lanes
  kFp16 = 2,  ///< IEEE binary16 codes
};

/// Human-readable mode name ("none" / "int8" / "fp16").
const char* QuantModeName(QuantMode mode);

/// Quantizes `rows` rows of `cols` fp32 values (row i at src + i * cols)
/// into blockwise Q8: codes into `codes` (rows * Q8Blocks(cols) * 32,
/// tail lanes zeroed), scales into `scales` (rows * Q8Blocks(cols)).
/// Buffers must be pre-sized by the caller.
void QuantizeRowsQ8(const float* src, int rows, int cols, int8_t* codes,
                    float* scales);

/// One weight matrix in quantized storage.
class QuantizedTensor {
 public:
  QuantizedTensor() = default;

  /// Quantizes `t` as stored (rows() x cols()).
  static QuantizedTensor Quantize(const Tensor& t, QuantMode mode);

  /// Quantizes `t` transposed — the result is cols() x rows(). Use for
  /// weights consumed as x * W^T so the contraction dim is contiguous.
  static QuantizedTensor QuantizeTransposed(const Tensor& t, QuantMode mode);

  /// Rebuilds a kInt8 tensor from raw storage (deserializer path).
  static QuantizedTensor FromQ8(int rows, int cols,
                                std::vector<int8_t> codes,
                                std::vector<float> scales);

  /// Rebuilds a kFp16 tensor from raw storage (deserializer path).
  static QuantizedTensor FromFp16(int rows, int cols,
                                  std::vector<uint16_t> codes);

  QuantMode mode() const { return mode_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Q8 blocks per row (0 for kFp16).
  int blocks_per_row() const { return blocks_per_row_; }

  const int8_t* q8_data() const { return q8_.data(); }
  const float* q8_scales() const { return scales_.data(); }
  const std::vector<int8_t>& q8_vector() const { return q8_; }
  const std::vector<float>& scales_vector() const { return scales_; }
  const uint16_t* fp16_data() const { return fp16_.data(); }
  const std::vector<uint16_t>& fp16_vector() const { return fp16_; }

  /// Decodes row r into `out` (at least cols() floats).
  void DequantizeRow(int r, float* out) const;

  /// Decodes the full matrix back to fp32.
  Tensor Dequantize() const;

  /// Bytes of quantized payload (codes + scales).
  size_t byte_size() const {
    return q8_.size() * sizeof(int8_t) + scales_.size() * sizeof(float) +
           fp16_.size() * sizeof(uint16_t);
  }

 private:
  QuantMode mode_ = QuantMode::kNone;
  int rows_ = 0;
  int cols_ = 0;
  int blocks_per_row_ = 0;
  std::vector<int8_t> q8_;      ///< kInt8: rows * blocks_per_row * 32 codes
  std::vector<float> scales_;   ///< kInt8: rows * blocks_per_row scales
  std::vector<uint16_t> fp16_;  ///< kFp16: rows * cols codes
};

/// Reusable buffers for the int8 activation codes GemmTransW quantizes on
/// the fly. Grown on demand and never shrunk, so a warm scratch makes the
/// int8 product allocation-free.
struct ActivationScratch {
  std::vector<int8_t> codes;
  std::vector<float> scales;
};

/// y (m x wt.rows, row-major) += x (m x wt.cols, row-major) * W^T where
/// `wt` holds W transposed (wt.rows = output dim, wt.cols = contraction
/// dim). For kInt8 the activations are quantized per row into `scratch`
/// (same Q8 block format) and the int8 dot kernel runs; for kFp16 the
/// fp16-load fp32-accumulate kernel runs and `scratch` is unused.
/// Accumulates like the GEMM kernels.
void GemmTransW(int m, const float* x, const QuantizedTensor& wt, float* y,
                ActivationScratch* scratch);

/// Tensor form of the above with a call-local scratch: y (x.rows x
/// wt.rows) += x * W^T; `y` must be pre-sized.
void GemmTransW(const Tensor& x, const QuantizedTensor& wt, Tensor* y);

/// One parameter a model wants quantized. `transpose` marks weights
/// consumed as x * W^T (stored transposed, see QuantizeTransposed).
struct QuantPlanEntry {
  const Parameter* param = nullptr;
  bool transpose = false;
};
using QuantPlan = std::vector<QuantPlanEntry>;

/// The quantized weights of one model: quantized tensors for the plan
/// entries plus fp32 passthrough copies of every other parameter, keyed by
/// parameter name, in store order.
class QuantizedStore {
 public:
  QuantizedStore() = default;
  explicit QuantizedStore(QuantMode mode) : mode_(mode) {}

  QuantMode mode() const { return mode_; }
  void set_mode(QuantMode mode) { mode_ = mode; }

  void AddQuantized(const std::string& name, QuantizedTensor t) {
    quantized_.emplace_back(name, std::move(t));
  }
  void AddFp32(const std::string& name, Tensor t) {
    fp32_.emplace_back(name, std::move(t));
  }

  const QuantizedTensor* FindQuantized(const std::string& name) const;
  const Tensor* FindFp32(const std::string& name) const;

  const std::vector<std::pair<std::string, QuantizedTensor>>& quantized()
      const {
    return quantized_;
  }
  const std::vector<std::pair<std::string, Tensor>>& fp32() const {
    return fp32_;
  }

  /// Total quantized payload bytes (compression diagnostics).
  size_t TotalBytes() const;

 private:
  QuantMode mode_ = QuantMode::kNone;
  std::vector<std::pair<std::string, QuantizedTensor>> quantized_;
  std::vector<std::pair<std::string, Tensor>> fp32_;
};

/// Quantizes a trained ParameterStore: plan entries become quantized
/// tensors (transposed where marked), every other parameter rides along as
/// an fp32 passthrough copy. `mode` must not be kNone.
QuantizedStore QuantizeParams(const ParameterStore& store,
                              const QuantPlan& plan, QuantMode mode);

}  // namespace alicoco::nn::quant

#endif  // ALICOCO_NN_QUANT_H_
