#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace alicoco::nn::quant {

const char* QuantModeName(QuantMode mode) {
  switch (mode) {
    case QuantMode::kNone:
      return "none";
    case QuantMode::kInt8:
      return "int8";
    case QuantMode::kFp16:
      return "fp16";
  }
  return "unknown";
}

void QuantizeRowsQ8(const float* src, int rows, int cols, int8_t* codes,
                    float* scales) {
  const int blocks = kernels::Q8Blocks(cols);
  for (int r = 0; r < rows; ++r) {
    const float* srow = src + static_cast<long>(r) * cols;
    int8_t* crow = codes + static_cast<long>(r) * blocks * kernels::kQ8Block;
    float* srow_scales = scales + static_cast<long>(r) * blocks;
    for (int blk = 0; blk < blocks; ++blk) {
      const int begin = blk * kernels::kQ8Block;
      const int len = std::min(kernels::kQ8Block, cols - begin);
      float absmax = 0.0f;
      for (int l = 0; l < len; ++l) {
        absmax = std::max(absmax, std::fabs(srow[begin + l]));
      }
      int8_t* cblk = crow + begin;
      if (absmax == 0.0f) {
        srow_scales[blk] = 0.0f;
        std::memset(cblk, 0, kernels::kQ8Block);
        continue;
      }
      const float scale = absmax / 127.0f;
      const float inv = 127.0f / absmax;
      srow_scales[blk] = scale;
      for (int l = 0; l < len; ++l) {
        // rint + clamp keeps codes in [-127, 127]; maddubs pair sums then
        // stay below int16 saturation in the AVX2 dot kernel.
        const float q = std::nearbyint(srow[begin + l] * inv);
        cblk[l] = static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
      }
      for (int l = len; l < kernels::kQ8Block; ++l) cblk[l] = 0;
    }
  }
}

namespace {

QuantizedTensor QuantizeDense(const float* src, int rows, int cols,
                              QuantMode mode) {
  ALICOCO_CHECK(mode != QuantMode::kNone) << "cannot quantize to fp32 mode";
  if (mode == QuantMode::kInt8) {
    const int blocks = kernels::Q8Blocks(cols);
    std::vector<int8_t> codes(
        static_cast<size_t>(rows) * blocks * kernels::kQ8Block);
    std::vector<float> scales(static_cast<size_t>(rows) * blocks);
    QuantizeRowsQ8(src, rows, cols, codes.data(), scales.data());
    return QuantizedTensor::FromQ8(rows, cols, std::move(codes),
                                   std::move(scales));
  }
  std::vector<uint16_t> codes(static_cast<size_t>(rows) * cols);
  kernels::Fp32ToFp16(src, codes.data(), rows * cols);
  return QuantizedTensor::FromFp16(rows, cols, std::move(codes));
}

}  // namespace

QuantizedTensor QuantizedTensor::Quantize(const Tensor& t, QuantMode mode) {
  return QuantizeDense(t.data(), t.rows(), t.cols(), mode);
}

QuantizedTensor QuantizedTensor::QuantizeTransposed(const Tensor& t,
                                                    QuantMode mode) {
  Tensor tt(t.cols(), t.rows());
  for (int r = 0; r < t.rows(); ++r) {
    const float* srow = t.Row(r);
    for (int c = 0; c < t.cols(); ++c) tt.At(c, r) = srow[c];
  }
  return QuantizeDense(tt.data(), tt.rows(), tt.cols(), mode);
}

QuantizedTensor QuantizedTensor::FromQ8(int rows, int cols,
                                        std::vector<int8_t> codes,
                                        std::vector<float> scales) {
  const int blocks = kernels::Q8Blocks(cols);
  ALICOCO_CHECK(codes.size() ==
                static_cast<size_t>(rows) * blocks * kernels::kQ8Block)
      << "q8 code buffer size mismatch for " << rows << "x" << cols;
  ALICOCO_CHECK(scales.size() == static_cast<size_t>(rows) * blocks)
      << "q8 scale buffer size mismatch for " << rows << "x" << cols;
  QuantizedTensor out;
  out.mode_ = QuantMode::kInt8;
  out.rows_ = rows;
  out.cols_ = cols;
  out.blocks_per_row_ = blocks;
  out.q8_ = std::move(codes);
  out.scales_ = std::move(scales);
  return out;
}

QuantizedTensor QuantizedTensor::FromFp16(int rows, int cols,
                                          std::vector<uint16_t> codes) {
  ALICOCO_CHECK(codes.size() == static_cast<size_t>(rows) * cols)
      << "fp16 code buffer size mismatch for " << rows << "x" << cols;
  QuantizedTensor out;
  out.mode_ = QuantMode::kFp16;
  out.rows_ = rows;
  out.cols_ = cols;
  out.fp16_ = std::move(codes);
  return out;
}

void QuantizedTensor::DequantizeRow(int r, float* out) const {
  ALICOCO_CHECK(r >= 0 && r < rows_) << "DequantizeRow(" << r << ") of "
                                     << rows_;
  if (mode_ == QuantMode::kFp16) {
    kernels::Fp16ToFp32(fp16_.data() + static_cast<long>(r) * cols_, out,
                        cols_);
    return;
  }
  ALICOCO_CHECK(mode_ == QuantMode::kInt8);
  const int8_t* crow =
      q8_.data() + static_cast<long>(r) * blocks_per_row_ * kernels::kQ8Block;
  const float* srow = scales_.data() + static_cast<long>(r) * blocks_per_row_;
  for (int blk = 0; blk < blocks_per_row_; ++blk) {
    const int begin = blk * kernels::kQ8Block;
    const int len = std::min(kernels::kQ8Block, cols_ - begin);
    const float scale = srow[blk];
    for (int l = 0; l < len; ++l) {
      out[begin + l] = scale * static_cast<float>(crow[begin + l]);
    }
  }
}

Tensor QuantizedTensor::Dequantize() const {
  Tensor out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) DequantizeRow(r, out.Row(r));
  return out;
}

void GemmTransW(int m, const float* x, const QuantizedTensor& wt, float* y,
                ActivationScratch* scratch) {
  const int k = wt.cols();
  if (wt.mode() == QuantMode::kFp16) {
    kernels::Fp16GemmTransBAccum(m, k, wt.rows(), x, wt.fp16_data(), y);
    return;
  }
  ALICOCO_CHECK(wt.mode() == QuantMode::kInt8)
      << "GemmTransW on fp32-mode tensor";
  const int blocks = wt.blocks_per_row();
  scratch->codes.resize(static_cast<size_t>(m) * blocks * kernels::kQ8Block);
  scratch->scales.resize(static_cast<size_t>(m) * blocks);
  QuantizeRowsQ8(x, m, k, scratch->codes.data(), scratch->scales.data());
  kernels::Q8GemmDotAccum(m, k, wt.rows(), scratch->codes.data(),
                          scratch->scales.data(), wt.q8_data(),
                          wt.q8_scales(), y);
}

void GemmTransW(const Tensor& x, const QuantizedTensor& wt, Tensor* y) {
  ALICOCO_CHECK(x.cols() == wt.cols())
      << "GemmTransW contraction mismatch: x is " << x.rows() << "x"
      << x.cols() << ", W^T is " << wt.rows() << "x" << wt.cols();
  ALICOCO_CHECK(y->rows() == x.rows() && y->cols() == wt.rows())
      << "GemmTransW output shape: want " << x.rows() << "x" << wt.rows()
      << ", got " << y->rows() << "x" << y->cols();
  ActivationScratch scratch;
  GemmTransW(x.rows(), x.data(), wt, y->data(), &scratch);
}

const QuantizedTensor* QuantizedStore::FindQuantized(
    const std::string& name) const {
  for (const auto& [key, tensor] : quantized_) {
    if (key == name) return &tensor;
  }
  return nullptr;
}

const Tensor* QuantizedStore::FindFp32(const std::string& name) const {
  for (const auto& [key, tensor] : fp32_) {
    if (key == name) return &tensor;
  }
  return nullptr;
}

size_t QuantizedStore::TotalBytes() const {
  size_t total = 0;
  for (const auto& [key, tensor] : quantized_) total += tensor.byte_size();
  return total;
}

QuantizedStore QuantizeParams(const ParameterStore& store,
                              const QuantPlan& plan, QuantMode mode) {
  ALICOCO_CHECK(mode != QuantMode::kNone)
      << "QuantizeParams requires int8 or fp16 mode";
  QuantizedStore out(mode);
  for (const auto& entry : plan) {
    ALICOCO_CHECK(entry.param != nullptr) << "null parameter in quant plan";
  }
  for (const auto& param : store.params()) {
    const QuantPlanEntry* planned = nullptr;
    for (const auto& entry : plan) {
      if (entry.param == param.get()) {
        planned = &entry;
        break;
      }
    }
    if (planned == nullptr) {
      out.AddFp32(param->name, param->value);
      continue;
    }
    out.AddQuantized(param->name,
                     planned->transpose
                         ? QuantizedTensor::QuantizeTransposed(param->value,
                                                               mode)
                         : QuantizedTensor::Quantize(param->value, mode));
  }
  return out;
}

}  // namespace alicoco::nn::quant
