// AVX2 implementations of the f32 inference kernel table (AVX2 + FMA) and
// the f64 training kernel table (AVX2, no FMA).
//
// Compiled in the default (baseline-ISA) build: every vector function
// carries a per-function target attribute and is only ever reached through
// Avx2F32Kernels() / Avx2F64Kernels(), which return nullptr unless CPUID
// reports the features the table needs. Bit-exactness with the scalar twins
// in kernels_f32.cc and kernels.cc is part of the kernel contract — see
// kernels_f32.h and kernels.h for the shared operation schedules and
// tests/kernels_test.cc for the exhaustive tail-length checks.
#include "src/ml/kernels.h"
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

// ---- f64 training kernels: AVX2 without FMA ----
//
// Each function mirrors its scalar twin in kernels.cc operation for
// operation: a 4-lane vector holds the scalar code's four accumulators (or
// four consecutive elements), and every multiply and add stays a separately
// rounded instruction.

#define CLARA_AVX2_F64 __attribute__((target("avx2")))

// ((s0+s1)+(s2+s3)), then the n % 4 tail in order — DotScalar's reduction.
CLARA_AVX2_F64 inline double FinishDotF64(__m256d acc, const double* a, const double* b,
                                          int i, int n) {
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  double s = (l[0] + l[1]) + (l[2] + l[3]);
  for (; i < n; ++i) {
    s += a[i] * b[i];
  }
  return s;
}

CLARA_AVX2_F64 double DotF64Avx2(const double* a, const double* b, int n) {
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  return FinishDotF64(acc, a, b, i, n);
}

// Four rows at a time share each x load and keep four independent
// accumulator chains in flight; every row still reduces in Dot's order.
CLARA_AVX2_F64 void GemvBiasF64Avx2(double* y, const double* m, const double* x,
                                    const double* bias, int rows, int cols) {
  const int body = cols & ~3;
  int r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* m0 = m + static_cast<size_t>(r) * cols;
    const double* m1 = m0 + cols;
    const double* m2 = m1 + cols;
    const double* m3 = m2 + cols;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = a0, a2 = a0, a3 = a0;
    for (int i = 0; i < body; i += 4) {
      __m256d xv = _mm256_loadu_pd(x + i);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(m0 + i), xv));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(m1 + i), xv));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(m2 + i), xv));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(m3 + i), xv));
    }
    const double* b = bias != nullptr ? bias + r : nullptr;
    y[r] = (b != nullptr ? b[0] : 0.0) + FinishDotF64(a0, m0, x, body, cols);
    y[r + 1] = (b != nullptr ? b[1] : 0.0) + FinishDotF64(a1, m1, x, body, cols);
    y[r + 2] = (b != nullptr ? b[2] : 0.0) + FinishDotF64(a2, m2, x, body, cols);
    y[r + 3] = (b != nullptr ? b[3] : 0.0) + FinishDotF64(a3, m3, x, body, cols);
  }
  for (; r < rows; ++r) {
    double b = bias != nullptr ? bias[r] : 0.0;
    y[r] = b + DotF64Avx2(m + static_cast<size_t>(r) * cols, x, cols);
  }
}

CLARA_AVX2_F64 void AxpyF64Avx2(double* y, double alpha, const double* x, int n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d p = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), p));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

CLARA_AVX2_F64 void AxpyDualF64Avx2(double* g, double* dh, const double* w,
                                    const double* h, double d, int n) {
  const __m256d vd = _mm256_set1_pd(d);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d gp = _mm256_mul_pd(vd, _mm256_loadu_pd(h + i));
    __m256d dp = _mm256_mul_pd(_mm256_loadu_pd(w + i), vd);
    _mm256_storeu_pd(g + i, _mm256_add_pd(_mm256_loadu_pd(g + i), gp));
    _mm256_storeu_pd(dh + i, _mm256_add_pd(_mm256_loadu_pd(dh + i), dp));
  }
  for (; i < n; ++i) {
    g[i] += d * h[i];
    dh[i] += w[i] * d;
  }
}

// The loop is bound by the divider (two divisions and a square root per
// element; one division once c1 == 1.0), not by vector width.
template <bool kDivideM>
CLARA_AVX2_F64 void AdamLoopF64Avx2(double* w, double* m, double* v, const double* g,
                                    int n, double alpha, double c1, double c2) {
  const __m256d b1 = _mm256_set1_pd(kAdamBeta1);
  const __m256d one_minus_b1 = _mm256_set1_pd(1 - kAdamBeta1);
  const __m256d b2 = _mm256_set1_pd(kAdamBeta2);
  const __m256d one_minus_b2 = _mm256_set1_pd(1 - kAdamBeta2);
  const __m256d eps = _mm256_set1_pd(kAdamEps);
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vc1 = _mm256_set1_pd(c1);
  const __m256d vc2 = _mm256_set1_pd(c2);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d gv = _mm256_loadu_pd(g + i);
    __m256d mv = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                               _mm256_mul_pd(one_minus_b1, gv));
    __m256d vv = _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                               _mm256_mul_pd(_mm256_mul_pd(one_minus_b2, gv), gv));
    _mm256_storeu_pd(m + i, mv);
    _mm256_storeu_pd(v + i, vv);
    __m256d m_hat = kDivideM ? _mm256_div_pd(mv, vc1) : mv;
    __m256d den = _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vv, vc2)), eps);
    __m256d step = _mm256_div_pd(_mm256_mul_pd(va, m_hat), den);
    _mm256_storeu_pd(w + i, _mm256_sub_pd(_mm256_loadu_pd(w + i), step));
  }
  ScalarF64Kernels().adam(w + i, m + i, v + i, g + i, n - i, alpha, c1, c2);
}

CLARA_AVX2_F64 void AdamF64Avx2(double* w, double* m, double* v, const double* g, int n,
                                double alpha, double c1, double c2) {
  if (c1 == 1.0) {
    AdamLoopF64Avx2<false>(w, m, v, g, n, alpha, c1, c2);
  } else {
    AdamLoopF64Avx2<true>(w, m, v, g, n, alpha, c1, c2);
  }
}

#undef CLARA_AVX2_F64

const F64Kernels kAvx2F64 = {
    "avx2", DotF64Avx2, GemvBiasF64Avx2, AxpyF64Avx2, AxpyDualF64Avx2, AdamF64Avx2,
};

}  // namespace

const F32Kernels* Avx2F32Kernels() {
  return simd::HasAvx2() && simd::HasFma() ? &kAvx2 : nullptr;
}

const F64Kernels* Avx2F64Kernels() { return simd::HasAvx2() ? &kAvx2F64 : nullptr; }

}  // namespace kernels
}  // namespace clara

#else  // !CLARA_SIMD_ENABLED || !x86-64

namespace clara {
namespace kernels {

const F32Kernels* Avx2F32Kernels() { return nullptr; }

const F64Kernels* Avx2F64Kernels() { return nullptr; }

}  // namespace kernels
}  // namespace clara

#endif
