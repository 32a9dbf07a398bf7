// Scalar reference implementation of the f64 kernel table. The AVX2 twin
// lives in kernels_avx2.cc; see kernels.h for the bit-exactness contract the
// two files uphold together.
#include "src/ml/kernels.h"

#include <cmath>

namespace clara {
namespace kernels {
namespace {

// dot(a, b) with 4-way register blocking. Reduction order is fixed:
// ((s0+s1)+(s2+s3)) + tail.
double DotScalar(const double* a, const double* b, int n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    s += a[i] * b[i];
  }
  return s;
}

void GemvBiasScalar(double* y, const double* m, const double* x, const double* bias,
                    int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    double b = bias != nullptr ? bias[r] : 0.0;
    y[r] = b + DotScalar(m + static_cast<size_t>(r) * cols, x, cols);
  }
}

void AxpyScalar(double* y, double alpha, const double* x, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void AxpyDualScalar(double* g, double* dh, const double* w, const double* h, double d,
                    int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    g[i] += d * h[i];
    dh[i] += w[i] * d;
    g[i + 1] += d * h[i + 1];
    dh[i + 1] += w[i + 1] * d;
    g[i + 2] += d * h[i + 2];
    dh[i + 2] += w[i + 2] * d;
    g[i + 3] += d * h[i + 3];
    dh[i + 3] += w[i + 3] * d;
  }
  for (; i < n; ++i) {
    g[i] += d * h[i];
    dh[i] += w[i] * d;
  }
}

// kDivideM is false once c1 == 1.0, where m / c1 == m exactly.
template <bool kDivideM>
void AdamLoop(double* w, double* m, double* v, const double* g, int n, double alpha,
              double c1, double c2) {
  for (int i = 0; i < n; ++i) {
    m[i] = kAdamBeta1 * m[i] + (1 - kAdamBeta1) * g[i];
    v[i] = kAdamBeta2 * v[i] + (1 - kAdamBeta2) * g[i] * g[i];
    double m_hat = kDivideM ? m[i] / c1 : m[i];
    w[i] -= alpha * m_hat / (std::sqrt(v[i] / c2) + kAdamEps);
  }
}

void AdamScalar(double* w, double* m, double* v, const double* g, int n, double alpha,
                double c1, double c2) {
  if (c1 == 1.0) {
    AdamLoop<false>(w, m, v, g, n, alpha, c1, c2);
  } else {
    AdamLoop<true>(w, m, v, g, n, alpha, c1, c2);
  }
}

const F64Kernels kScalar = {
    "scalar", DotScalar, GemvBiasScalar, AxpyScalar, AxpyDualScalar, AdamScalar,
};

}  // namespace

const F64Kernels& ScalarF64Kernels() { return kScalar; }

const F64Kernels& ActiveF64Kernels() {
  const F64Kernels* avx2 = Avx2F64Kernels();
  return avx2 != nullptr ? *avx2 : kScalar;
}

}  // namespace kernels
}  // namespace clara
