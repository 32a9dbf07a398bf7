// AVX2/FMA implementation of the f32 kernel table.
//
// Compiled in the default (baseline-ISA) build: every AVX2 function carries
// __attribute__((target("avx2,fma"))) and is only ever reached through
// Avx2F32Kernels(), which returns nullptr unless CPUID reports both
// features. Bit-exactness with the scalar twin in kernels_f32.cc is part of
// the kernel contract — see kernels_f32.h for the shared operation schedule
// and tests/kernels_test.cc for the exhaustive tail-length checks.
#include "src/ml/kernels_f32.h"
#include "src/ml/simd.h"

#if defined(CLARA_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cmath>

namespace clara {
namespace kernels {
namespace {

#define CLARA_AVX2 __attribute__((target("avx2,fma")))

CLARA_AVX2 float DotAvx2(const float* a, const float* b, int n) {
  __m256 acc = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  alignas(32) float l[8];
  _mm256_store_ps(l, acc);
  float s = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  for (; i < n; ++i) {
    s = std::fmaf(a[i], b[i], s);
  }
  return s;
}

CLARA_AVX2 void GemvBiasAvx2(float* y, const float* m, int stride,
                             const float* x, const float* bias, int rows,
                             int cols) {
  for (int r = 0; r < rows; ++r) {
    float b = bias != nullptr ? bias[r] : 0.0f;
    y[r] = b + DotAvx2(m + static_cast<size_t>(r) * stride, x, cols);
  }
}

CLARA_AVX2 void MulAvx2(float* z, const float* x, const float* y, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(z + i,
                     _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) {
    z[i] = x[i] * y[i];
  }
}

CLARA_AVX2 void MulAccumAvx2(float* z, const float* x, const float* y, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(z + i, _mm256_fmadd_ps(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i),
                                            _mm256_loadu_ps(z + i)));
  }
  for (; i < n; ++i) {
    z[i] = std::fmaf(x[i], y[i], z[i]);
  }
}

// The Padé(7,6) tanh from kernels_f32.h, one fmadd chain per 8 lanes. The
// constants and operation order must stay in lockstep with TanhCore in
// kernels_f32.cc.
CLARA_AVX2 inline __m256 TanhCoreAvx2(__m256 v) {
  const __m256 clamp = _mm256_set1_ps(4.97f);
  v = _mm256_min_ps(_mm256_max_ps(v, _mm256_sub_ps(_mm256_setzero_ps(), clamp)),
                    clamp);
  __m256 x2 = _mm256_mul_ps(v, v);
  __m256 n1 = _mm256_add_ps(x2, _mm256_set1_ps(378.0f));
  __m256 n2 = _mm256_fmadd_ps(x2, n1, _mm256_set1_ps(17325.0f));
  __m256 n3 = _mm256_fmadd_ps(x2, n2, _mm256_set1_ps(135135.0f));
  __m256 d1 = _mm256_fmadd_ps(x2, _mm256_set1_ps(28.0f), _mm256_set1_ps(3150.0f));
  __m256 d2 = _mm256_fmadd_ps(x2, d1, _mm256_set1_ps(62370.0f));
  __m256 d3 = _mm256_fmadd_ps(x2, d2, _mm256_set1_ps(135135.0f));
  return _mm256_div_ps(_mm256_mul_ps(v, n3), d3);
}

CLARA_AVX2 void TanhVAvx2(float* y, const float* x, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, TanhCoreAvx2(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    y[i] = TanhApprox(x[i]);
  }
}

CLARA_AVX2 void SigmoidVAvx2(float* y, const float* x, int n) {
  const __m256 half = _mm256_set1_ps(0.5f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = TanhCoreAvx2(_mm256_mul_ps(half, _mm256_loadu_ps(x + i)));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(half, t, half));
  }
  for (; i < n; ++i) {
    y[i] = SigmoidApprox(x[i]);
  }
}

#undef CLARA_AVX2

const F32Kernels kAvx2 = {
    "avx2",       DotAvx2,   GemvBiasAvx2, MulAvx2,
    MulAccumAvx2, TanhVAvx2, SigmoidVAvx2,
};

}  // namespace

const F32Kernels* Avx2F32Kernels() {
  return simd::HasAvx2() && simd::HasFma() ? &kAvx2 : nullptr;
}

}  // namespace kernels
}  // namespace clara

#else  // !CLARA_SIMD_ENABLED || !x86-64

namespace clara {
namespace kernels {

const F32Kernels* Avx2F32Kernels() { return nullptr; }

}  // namespace kernels
}  // namespace clara

#endif
