// Scalar reference implementation of the f32 kernel table, plus the shared
// one-hot gather and tanh/sigmoid entry points. The AVX2 twin lives in
// kernels_avx2.cc; see kernels_f32.h for the bit-exactness contract the two
// files uphold together.
#include "src/ml/kernels_f32.h"

#include <cmath>

#include "src/ml/simd.h"

namespace clara {
namespace kernels {
namespace {

// Inputs beyond the clamp saturate: tanh(4.97) is within 5e-5 of 1 and the
// polynomial stays monotone inside the window.
constexpr float kTanhClamp = 4.97f;

// minps/maxps semantics (NaN in the variable operand yields the constant),
// written as ternaries so the scalar path matches the vector instructions
// exactly, NaN inputs included.
inline float ClampTanhInput(float x) {
  float t = x > -kTanhClamp ? x : -kTanhClamp;
  return t < kTanhClamp ? t : kTanhClamp;
}

inline float TanhCore(float x) {
  x = ClampTanhInput(x);
  float x2 = x * x;
  float n1 = x2 + 378.0f;
  float n2 = std::fmaf(x2, n1, 17325.0f);
  float n3 = std::fmaf(x2, n2, 135135.0f);
  float d1 = std::fmaf(x2, 28.0f, 3150.0f);
  float d2 = std::fmaf(x2, d1, 62370.0f);
  float d3 = std::fmaf(x2, d2, 135135.0f);
  return (x * n3) / d3;
}

inline float SigmoidCore(float x) {
  return std::fmaf(0.5f, TanhCore(0.5f * x), 0.5f);
}

float DotScalar(const float* a, const float* b, int n) {
  float l[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) {
      l[j] = std::fmaf(a[i + j], b[i + j], l[j]);
    }
  }
  float s = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  for (; i < n; ++i) {
    s = std::fmaf(a[i], b[i], s);
  }
  return s;
}

void GemvBiasScalar(float* y, const float* m, int stride, const float* x,
                    const float* bias, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float b = bias != nullptr ? bias[r] : 0.0f;
    y[r] = b + DotScalar(m + static_cast<size_t>(r) * stride, x, cols);
  }
}

void MulScalar(float* z, const float* x, const float* y, int n) {
  for (int i = 0; i < n; ++i) {
    z[i] = x[i] * y[i];
  }
}

void MulAccumScalar(float* z, const float* x, const float* y, int n) {
  for (int i = 0; i < n; ++i) {
    z[i] = std::fmaf(x[i], y[i], z[i]);
  }
}

void TanhVScalar(float* y, const float* x, int n) {
  for (int i = 0; i < n; ++i) {
    y[i] = TanhCore(x[i]);
  }
}

void SigmoidVScalar(float* y, const float* x, int n) {
  for (int i = 0; i < n; ++i) {
    y[i] = SigmoidCore(x[i]);
  }
}

const F32Kernels kScalar = {
    "scalar",       DotScalar,   GemvBiasScalar, MulScalar,
    MulAccumScalar, TanhVScalar, SigmoidVScalar,
};

}  // namespace

const F32Kernels& ScalarF32Kernels() { return kScalar; }

const F32Kernels& ActiveF32Kernels() {
  const F32Kernels* avx2 = Avx2F32Kernels();
  return avx2 != nullptr ? *avx2 : kScalar;
}

void OneHotGatherAddF32(float* y, const float* wx, const float* bias, int x,
                        int rows, int vocab) {
  for (int r = 0; r < rows; ++r) {
    y[r] += bias[r] + wx[static_cast<size_t>(r) * vocab + x];
  }
}

float TanhApprox(float x) { return TanhCore(x); }

float SigmoidApprox(float x) { return SigmoidCore(x); }

}  // namespace kernels
}  // namespace clara
