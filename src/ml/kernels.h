// Float64 training kernels behind runtime CPU-feature dispatch: the LSTM's
// forward pass, BPTT and Adam update (src/ml/lstm.cc), and the default f64
// inference path that replays the same forward pass.
//
// Two implementations of one kernel table exist in the binary: a scalar
// reference (kernels.cc) and an AVX2 version (kernels_avx2.cc, compiled with
// a per-function target attribute so the rest of the build keeps its
// baseline ISA). ActiveF64Kernels() picks one at startup from CPUID.
//
// Determinism contract (enforced bit for bit by tests/kernels_test.cc): both
// tables produce identical results for every input length, so the fitted
// weights, the saved bundle and every f64 answer are byte-identical on AVX2
// and non-AVX2 hosts. They agree on the exact operation schedule:
//   * dot products keep four mod-4 lane accumulators, each updated with a
//     separately rounded multiply then add (never a fused multiply-add),
//     reduce them as ((s0+s1)+(s2+s3)), then fold the n % 4 tail in order;
//   * elementwise kernels do one exactly rounded operation per element, in
//     the same order on both sides; IEEE division and square root are
//     exactly rounded in scalar and vector form alike;
//   * sigmoid and tanh are not in the table: the caller keeps them as
//     scalar libm calls, because vector libm returns different bits.
// Every kernel reduces in a fixed order that depends only on the vector
// length, so results are also identical run to run and at any thread count.
#ifndef SRC_ML_KERNELS_H_
#define SRC_ML_KERNELS_H_

#include <cstddef>

namespace clara {
namespace kernels {

// Adam hyperparameters shared by both implementations of F64Kernels::adam.
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;

// One vtable of f64 kernels. `m` arguments are row-major (rows x cols).
struct F64Kernels {
  const char* name;  // "scalar" or "avx2"
  double (*dot)(const double* a, const double* b, int n);
  // y[r] = (bias ? bias[r] : 0) + dot(m_row_r, x, cols)
  void (*gemv_bias)(double* y, const double* m, const double* x, const double* bias,
                    int rows, int cols);
  // y[i] += alpha * x[i]
  void (*axpy)(double* y, double alpha, const double* x, int n);
  // The fused BPTT recurrence update: one pass that both scatters the
  // gradient outer product and gathers the hidden-state backprop term,
  //   g[i] += d * h[i];  dh[i] += w[i] * d;
  // halving the memory traffic versus two separate axpy sweeps. g and dh
  // must not alias.
  void (*axpy_dual)(double* g, double* dh, const double* w, const double* h, double d,
                    int n);
  // One Adam step over n parameters, updating the moments in place:
  //   m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;
  //   w -= (alpha (m / c1)) / (sqrt(v / c2) + eps)
  // with c1 = 1 - b1^t and c2 = 1 - b2^t. Once c1 rounds to exactly 1.0
  // (t >= 356) the m / c1 division is skipped, which changes no bit.
  void (*adam)(double* w, double* m, double* v, const double* g, int n, double alpha,
               double c1, double c2);
};

// The scalar reference implementation (always available).
const F64Kernels& ScalarF64Kernels();

// The AVX2 implementation, or nullptr when the binary was built without it
// (-DCLARA_SIMD=OFF / non-x86) or this CPU lacks AVX2. It uses no FMA.
const F64Kernels* Avx2F64Kernels();

// The dispatch decision: AVX2 table when usable, scalar otherwise.
const F64Kernels& ActiveF64Kernels();

// The LSTM input transform for a one-hot token: y[r] += bias[r] +
// wx[r * vocab + x], i.e. a column gather from the input weight matrix —
// cost independent of vocabulary size, no one-hot vector ever built. A
// column gather has no contiguous vectors to speed up, so there is one
// (scalar) implementation shared by both backends.
inline void OneHotGatherAdd(double* y, const double* wx, const double* bias, int x,
                            int rows, int vocab) {
  for (int r = 0; r < rows; ++r) {
    y[r] += bias[r] + wx[static_cast<size_t>(r) * vocab + x];
  }
}

}  // namespace kernels
}  // namespace clara

#endif  // SRC_ML_KERNELS_H_
