#include "src/ml/infer.h"

#include <algorithm>

#include "src/ml/kernels_f32.h"

namespace clara {
namespace {

int RoundUp8(int n) { return (n + 7) & ~7; }

void CastToF32(const std::vector<double>& src, float* dst) {
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

// Copies `rows` rows of `cols` doubles into f32 rows of `stride` floats
// (padding already zeroed by AlignedF32).
void CastRowsToF32(const std::vector<double>& src, float* dst, int rows, int cols,
                   int stride) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      dst[static_cast<size_t>(r) * stride + c] =
          static_cast<float>(src[static_cast<size_t>(r) * cols + c]);
    }
  }
}

}  // namespace

const char* InferBackendName(InferBackend b) {
  switch (b) {
    case InferBackend::kF64:
      return "f64";
    case InferBackend::kF32:
      return "f32";
  }
  return "f64";
}

bool ParseInferBackend(std::string_view s, InferBackend* out) {
  if (s == "f64") {
    *out = InferBackend::kF64;
  } else if (s == "f32") {
    *out = InferBackend::kF32;
  } else {
    return false;
  }
  return true;
}

LstmInferEngine::AlignedF32::AlignedF32(size_t n) {
  p_.reset(new (std::align_val_t{32}) float[n]());
}

LstmInferEngine::LstmInferEngine(const LstmF64View& v)
    : h_(v.hidden),
      f_(v.fc_hidden),
      vocab_(v.vocab),
      max_seq_len_(v.max_seq_len),
      hp_(RoundUp8(v.hidden)),
      fp_(RoundUp8(v.fc_hidden)),
      wx_(static_cast<size_t>(4 * v.hidden) * std::max(v.vocab, 1)),
      wh_(static_cast<size_t>(4 * v.hidden) * hp_),
      b_(static_cast<size_t>(4 * v.hidden)),
      w1_(static_cast<size_t>(v.fc_hidden) * hp_),
      b1_(static_cast<size_t>(v.fc_hidden)),
      w2_(static_cast<size_t>(fp_)),
      b2_(static_cast<float>(v.b2)) {
  if (vocab_ == 0) {
    return;
  }
  CastToF32(*v.wx, wx_.data());
  CastRowsToF32(*v.wh, wh_.data(), 4 * h_, h_, hp_);
  CastToF32(*v.b, b_.data());
  CastRowsToF32(*v.w1, w1_.data(), f_, h_, hp_);
  CastToF32(*v.b1, b1_.data());
  CastToF32(*v.w2, w2_.data());
}

void LstmInferEngine::RunSteps(const std::vector<int>& tokens, float* h, float* c,
                               float* pre, float* tmp) const {
  const kernels::F32Kernels& k = kernels::ActiveF32Kernels();
  size_t len = std::min<size_t>(tokens.size(), max_seq_len_);
  for (size_t t = 0; t < len; ++t) {
    int x = tokens[t];
    if (x < 0 || x >= vocab_) {
      x = 0;
    }
    k.gemv_bias(pre, wh_.data(), hp_, h, nullptr, 4 * h_, h_);
    kernels::OneHotGatherAddF32(pre, wx_.data(), b_.data(), x, 4 * h_, vocab_);
    // Gate blocks [i; f; g; o], nonlinearities in place, then the cell update
    //   c = f⊙c + i⊙g ; h = o⊙tanh(c)
    // as three elementwise kernels.
    k.sigmoid_v(pre, pre, h_);
    k.sigmoid_v(pre + h_, pre + h_, h_);
    k.tanh_v(pre + 2 * h_, pre + 2 * h_, h_);
    k.sigmoid_v(pre + 3 * h_, pre + 3 * h_, h_);
    k.mul(c, pre + h_, c, h_);
    k.mul_accum(c, pre, pre + 2 * h_, h_);
    k.tanh_v(tmp, c, h_);
    k.mul(h, pre + 3 * h_, tmp, h_);
  }
}

double LstmInferEngine::PredictF32(const std::vector<int>& tokens) const {
  const kernels::F32Kernels& k = kernels::ActiveF32Kernels();
  std::vector<float> h(hp_, 0.0f);
  std::vector<float> c(hp_, 0.0f);
  std::vector<float> pre(static_cast<size_t>(4) * h_);
  std::vector<float> tmp(hp_, 0.0f);
  RunSteps(tokens, h.data(), c.data(), pre.data(), tmp.data());
  std::vector<float> fc(static_cast<size_t>(2) * fp_, 0.0f);
  float* fc_pre = fc.data();
  float* fc_h = fc.data() + fp_;
  k.gemv_bias(fc_pre, w1_.data(), hp_, h.data(), b1_.data(), f_, h_);
  for (int j = 0; j < f_; ++j) {
    fc_h[j] = fc_pre[j] > 0 ? fc_pre[j] : 0;
  }
  return b2_ + k.dot(w2_.data(), fc_h, f_);
}

}  // namespace clara
