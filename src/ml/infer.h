// The packed inference engine for the serve hot path: a float32 forward
// pass for the trained LSTM + FC head, built once from the double-precision
// training parameters.
//
// Backends and their guarantees:
//   * kF64 — the training-time double path (LstmRegressor::Forward on the
//     f64 kernel table of src/ml/kernels.h, AVX2 or scalar, bit-identical).
//     Bit-identical to training-time predictions; the default everywhere.
//   * kF32 — packed float32 weights, AVX2/FMA kernels with scalar fallback
//     (src/ml/kernels_f32.h). Bit-identical across scalar and AVX2 on the
//     same artifact; diverges from kF64 only through f32 rounding and the
//     bounded-error tanh/sigmoid polynomial.
//
// Weight layout: the four gate blocks (i, f, g, o) are packed row-major into
// one 4H-row matrix exactly like the f64 trainer, with each f32 row padded
// to a multiple of 8 floats and the buffers 32-byte aligned so every AVX2
// row load starts on a vector boundary. The one-hot input transform stays a
// column gather (f32, stride = vocab).
#ifndef SRC_ML_INFER_H_
#define SRC_ML_INFER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace clara {

enum class InferBackend : uint8_t { kF64 = 0, kF32 = 1 };

const char* InferBackendName(InferBackend b);
// Parses "f64" | "f32"; returns false (out untouched) otherwise.
bool ParseInferBackend(std::string_view s, InferBackend* out);

// A read-only view of LstmRegressor's trained double-precision parameters
// (gate blocks packed as [i; f; g; o] rows).
struct LstmF64View {
  int hidden = 0;
  int fc_hidden = 0;
  int max_seq_len = 0;
  int vocab = 0;  // 0 == untrained
  double y_scale = 1;
  const std::vector<double>* wx = nullptr;  // 4H x V
  const std::vector<double>* wh = nullptr;  // 4H x H
  const std::vector<double>* b = nullptr;   // 4H
  const std::vector<double>* w1 = nullptr;  // F x H
  const std::vector<double>* b1 = nullptr;  // F
  const std::vector<double>* w2 = nullptr;  // F
  double b2 = 0;
};

// Immutable packed inference state; safe for concurrent PredictF32 calls and
// shared between LstmRegressor copies via shared_ptr.
class LstmInferEngine {
 public:
  explicit LstmInferEngine(const LstmF64View& v);
  LstmInferEngine(const LstmInferEngine&) = delete;
  LstmInferEngine& operator=(const LstmInferEngine&) = delete;

  // Unscaled model outputs (callers apply y_scale and the >= 0 clamp, like
  // LstmRegressor::Forward).
  double PredictF32(const std::vector<int>& tokens) const;

 private:
  // 32-byte aligned zero-initialized float buffer (movable, non-copyable).
  struct AlignedF32 {
    AlignedF32() = default;
    explicit AlignedF32(size_t n);
    float* data() { return p_.get(); }
    const float* data() const { return p_.get(); }

    struct Deleter {
      void operator()(float* p) const {
        ::operator delete[](p, std::align_val_t{32});
      }
    };
    std::unique_ptr<float[], Deleter> p_;
  };

  void RunSteps(const std::vector<int>& tokens, float* h, float* c, float* pre,
                float* tmp) const;

  int h_ = 0;        // hidden
  int f_ = 0;        // fc_hidden
  int vocab_ = 0;
  int max_seq_len_ = 0;
  int hp_ = 0;       // hidden padded to a multiple of 8
  int fp_ = 0;       // fc_hidden padded to a multiple of 8
  AlignedF32 wx_;    // 4H x vocab (stride = vocab)
  AlignedF32 wh_;    // 4H x hp_
  AlignedF32 b_;     // 4H
  AlignedF32 w1_;    // F x hp_
  AlignedF32 b1_;    // F
  AlignedF32 w2_;    // fp_
  float b2_ = 0;
};

}  // namespace clara

#endif  // SRC_ML_INFER_H_
