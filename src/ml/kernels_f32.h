// Float32 inference kernels behind runtime CPU-feature dispatch.
//
// Two implementations of the same kernel table exist in the binary: a scalar
// reference (kernels_f32.cc) and an AVX2/FMA version (kernels_avx2.cc,
// compiled with a per-function target attribute so the rest of the build
// keeps its baseline ISA). ActiveF32Kernels() picks one at startup from
// CPUID.
//
// Determinism contract (enforced bit-for-bit by tests/kernels_test.cc):
// both implementations produce identical results for every input length,
// because they agree on the exact operation schedule —
//   * dot products keep 8 mod-8 lane accumulators updated with fused
//     multiply-add (std::fmaf lane-wise == vfmadd231ps element-wise), reduce
//     them as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then fold the tail
//     (n % 8 elements) sequentially with fmaf;
//   * elementwise kernels are a single exactly-rounded op per element;
//   * tanh/sigmoid use one shared polynomial (see TanhApprox) built from
//     fmaf/mul/div, all exactly rounded.
// The whole project is compiled with -ffp-contract=off so the compiler
// cannot introduce fused ops the other implementation lacks.
#ifndef SRC_ML_KERNELS_F32_H_
#define SRC_ML_KERNELS_F32_H_

#include <cstddef>

namespace clara {
namespace kernels {

// One vtable of f32 kernels. `m` arguments are row-major with an
// explicit row stride (>= cols) so callers can pad rows for alignment.
struct F32Kernels {
  const char* name;  // "scalar" or "avx2"
  float (*dot)(const float* a, const float* b, int n);
  // y[r] = (bias ? bias[r] : 0) + dot(m_row_r, x, cols)
  void (*gemv_bias)(float* y, const float* m, int stride, const float* x,
                    const float* bias, int rows, int cols);
  // z[i] = x[i] * y[i] (z may alias x or y)
  void (*mul)(float* z, const float* x, const float* y, int n);
  // z[i] += x[i] * y[i] via fmaf
  void (*mul_accum)(float* z, const float* x, const float* y, int n);
  // y[i] = TanhApprox(x[i]); y may alias x
  void (*tanh_v)(float* y, const float* x, int n);
  // y[i] = 0.5 + 0.5 * TanhApprox(0.5 * x[i]); y may alias x
  void (*sigmoid_v)(float* y, const float* x, int n);
};

// The scalar reference implementation (always available).
const F32Kernels& ScalarF32Kernels();

// The AVX2 implementation, or nullptr when the binary was built without it
// (-DCLARA_SIMD=OFF / non-x86) or this CPU lacks AVX2+FMA. Never returns a
// table that would fault at runtime.
const F32Kernels* Avx2F32Kernels();

// The dispatch decision: AVX2 table when usable, scalar otherwise.
const F32Kernels& ActiveF32Kernels();

// LSTM one-hot input transform: y[r] += bias[r] + wx[r*vocab + x]. A column
// gather has no contiguous vectors to speed up, so there is one (scalar)
// implementation shared by both backends.
void OneHotGatherAddF32(float* y, const float* wx, const float* bias, int x,
                        int rows, int vocab);

// Shared tanh polynomial: the Padé(7,6) expansion
//   t(x) = x (135135 + 17325 x^2 + 378 x^4 + x^6)
//        / (135135 + 62370 x^2 + 3150 x^4 + 28 x^6)
// with the input clamped to [-4.97, 4.97]. Max absolute error vs tanh is
// bounded by 2.5e-4 over all finite inputs (validated on a dense grid in
// tests/kernels_test.cc); the derived sigmoid is within 1.25e-4.
float TanhApprox(float x);
float SigmoidApprox(float x);

}  // namespace kernels
}  // namespace clara

#endif  // SRC_ML_KERNELS_F32_H_
