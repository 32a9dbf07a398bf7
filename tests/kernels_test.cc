// Tests for the f32 inference kernels (src/ml/kernels_f32.h), the f64
// training kernels (src/ml/kernels.h) and the packed inference engine
// (src/ml/infer.h).
//
// The load-bearing property is the determinism contract: the scalar and AVX2
// kernel tables must agree bit-for-bit on every input length, so a model
// trained or served on a machine without AVX2 is byte-identical to one with
// it. When the binary was built without SIMD or the CPU lacks the features a
// table needs, its bit-exactness tests skip (there is only one
// implementation to test).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/ml/infer.h"
#include "src/ml/kernels.h"
#include "src/ml/kernels_f32.h"
#include "src/ml/lstm.h"
#include "src/ml/simd.h"
#include "src/util/rng.h"

namespace clara {
namespace {

using kernels::Avx2F32Kernels;
using kernels::F32Kernels;
using kernels::ScalarF32Kernels;

std::vector<float> RandomVec(Rng& rng, int n, float lo = -3.0f, float hi = 3.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(lo + (hi - lo) * rng.NextDouble());
  return v;
}

// ---- scalar vs AVX2 bit-exactness, every length 1..64 ----

class SimdExactnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = Avx2F32Kernels();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "AVX2 kernels unavailable (built out or CPU lacks "
                      "avx2+fma); scalar table is the only implementation";
    }
  }
  const F32Kernels* avx2_ = nullptr;
};

TEST_F(SimdExactnessTest, DotBitExactEveryLength) {
  const F32Kernels& scalar = ScalarF32Kernels();
  Rng rng(7);
  for (int n = 1; n <= 64; ++n) {
    std::vector<float> a = RandomVec(rng, n), b = RandomVec(rng, n);
    float s = scalar.dot(a.data(), b.data(), n);
    float v = avx2_->dot(a.data(), b.data(), n);
    uint32_t sb, vb;
    std::memcpy(&sb, &s, 4);
    std::memcpy(&vb, &v, 4);
    EXPECT_EQ(sb, vb) << "dot diverges at n=" << n;
  }
}

TEST_F(SimdExactnessTest, GemvBiasBitExactEveryShape) {
  const F32Kernels& scalar = ScalarF32Kernels();
  Rng rng(11);
  for (int cols = 1; cols <= 64; ++cols) {
    const int rows = 5;
    // Padded stride exercises the row-pointer arithmetic both sides use.
    const int stride = cols + (cols % 3);
    std::vector<float> m = RandomVec(rng, rows * stride);
    std::vector<float> x = RandomVec(rng, cols);
    std::vector<float> bias = RandomVec(rng, rows);
    std::vector<float> ys(rows), yv(rows);
    scalar.gemv_bias(ys.data(), m.data(), stride, x.data(), bias.data(), rows, cols);
    avx2_->gemv_bias(yv.data(), m.data(), stride, x.data(), bias.data(), rows, cols);
    EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), rows * sizeof(float)))
        << "gemv_bias diverges at cols=" << cols;
    // nullptr bias path.
    scalar.gemv_bias(ys.data(), m.data(), stride, x.data(), nullptr, rows, cols);
    avx2_->gemv_bias(yv.data(), m.data(), stride, x.data(), nullptr, rows, cols);
    EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), rows * sizeof(float)))
        << "gemv_bias (no bias) diverges at cols=" << cols;
  }
}

TEST_F(SimdExactnessTest, ElementwiseBitExactEveryLength) {
  const F32Kernels& scalar = ScalarF32Kernels();
  Rng rng(13);
  for (int n = 1; n <= 64; ++n) {
    std::vector<float> x = RandomVec(rng, n, -6.0f, 6.0f);
    std::vector<float> y = RandomVec(rng, n, -6.0f, 6.0f);
    std::vector<float> zs(n), zv(n);

    scalar.mul(zs.data(), x.data(), y.data(), n);
    avx2_->mul(zv.data(), x.data(), y.data(), n);
    EXPECT_EQ(0, std::memcmp(zs.data(), zv.data(), n * sizeof(float)))
        << "mul diverges at n=" << n;

    std::vector<float> as = RandomVec(rng, n), av = as;
    scalar.mul_accum(as.data(), x.data(), y.data(), n);
    avx2_->mul_accum(av.data(), x.data(), y.data(), n);
    EXPECT_EQ(0, std::memcmp(as.data(), av.data(), n * sizeof(float)))
        << "mul_accum diverges at n=" << n;

    scalar.tanh_v(zs.data(), x.data(), n);
    avx2_->tanh_v(zv.data(), x.data(), n);
    EXPECT_EQ(0, std::memcmp(zs.data(), zv.data(), n * sizeof(float)))
        << "tanh_v diverges at n=" << n;

    scalar.sigmoid_v(zs.data(), x.data(), n);
    avx2_->sigmoid_v(zv.data(), x.data(), n);
    EXPECT_EQ(0, std::memcmp(zs.data(), zv.data(), n * sizeof(float)))
        << "sigmoid_v diverges at n=" << n;
  }
}

// ---- f64 training kernels: scalar vs AVX2 bit-exactness, every length 0..67 ----

using kernels::Avx2F64Kernels;
using kernels::F64Kernels;
using kernels::ScalarF64Kernels;

constexpr int kMaxF64Len = 67;  // every vector body and tail split, n % 4 == 0..3

std::vector<double> RandomF64(Rng& rng, int n, double lo = -3.0, double hi = 3.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = lo + (hi - lo) * rng.NextDouble();
  return v;
}

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Compares bit patterns, not values: == would call -0.0 and 0.0 equal.
::testing::AssertionResult SameBits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

class F64ExactnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = Avx2F64Kernels();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "AVX2 f64 kernels unavailable (built out or CPU lacks "
                      "avx2); scalar table is the only implementation";
    }
  }
  const F64Kernels& scalar_ = ScalarF64Kernels();
  const F64Kernels* avx2_ = nullptr;
};

TEST_F(F64ExactnessTest, DotBitExactEveryLength) {
  Rng rng(17);
  for (int n = 0; n <= kMaxF64Len; ++n) {
    std::vector<double> a = RandomF64(rng, n), b = RandomF64(rng, n);
    EXPECT_EQ(Bits(scalar_.dot(a.data(), b.data(), n)), Bits(avx2_->dot(a.data(), b.data(), n)))
        << "dot diverges at n=" << n;
  }
}

TEST_F(F64ExactnessTest, GemvBiasBitExactEveryShape) {
  Rng rng(19);
  auto check = [&](int rows, int cols) {
    std::vector<double> m = RandomF64(rng, rows * cols);
    std::vector<double> x = RandomF64(rng, cols);
    std::vector<double> bias = RandomF64(rng, rows);
    std::vector<double> ys(rows), yv(rows);
    scalar_.gemv_bias(ys.data(), m.data(), x.data(), bias.data(), rows, cols);
    avx2_->gemv_bias(yv.data(), m.data(), x.data(), bias.data(), rows, cols);
    EXPECT_TRUE(SameBits(ys, yv)) << "gemv_bias diverges at " << rows << "x" << cols;
    scalar_.gemv_bias(ys.data(), m.data(), x.data(), nullptr, rows, cols);
    avx2_->gemv_bias(yv.data(), m.data(), x.data(), nullptr, rows, cols);
    EXPECT_TRUE(SameBits(ys, yv)) << "gemv_bias (no bias) diverges at " << rows << "x"
                                  << cols;
  };
  // Seven rows: one four-row block plus three single rows.
  for (int cols = 0; cols <= kMaxF64Len; ++cols) {
    check(7, cols);
  }
  check(128, 32);  // the LSTM recurrence, 4H x H at H = 32
  check(16, 32);   // the FC head, F x H
}

TEST_F(F64ExactnessTest, AxpyAndAxpyDualBitExactEveryLength) {
  Rng rng(23);
  for (int n = 0; n <= kMaxF64Len; ++n) {
    std::vector<double> x = RandomF64(rng, n), w = RandomF64(rng, n);
    std::vector<double> ys = RandomF64(rng, n), yv = ys;
    scalar_.axpy(ys.data(), -0.37, x.data(), n);
    avx2_->axpy(yv.data(), -0.37, x.data(), n);
    EXPECT_TRUE(SameBits(ys, yv)) << "axpy diverges at n=" << n;

    std::vector<double> gs = RandomF64(rng, n), gv = gs;
    std::vector<double> dhs = RandomF64(rng, n), dhv = dhs;
    scalar_.axpy_dual(gs.data(), dhs.data(), w.data(), x.data(), 1.93, n);
    avx2_->axpy_dual(gv.data(), dhv.data(), w.data(), x.data(), 1.93, n);
    EXPECT_TRUE(SameBits(gs, gv)) << "axpy_dual g diverges at n=" << n;
    EXPECT_TRUE(SameBits(dhs, dhv)) << "axpy_dual dh diverges at n=" << n;
  }
}

// Gradients mixing ordinary values with ±0, subnormals and magnitudes whose
// square overflows to infinity.
std::vector<double> AdamGradients(Rng& rng, int n) {
  const double special[] = {0.0, -0.0, 4.9e-324, -2.2e-310, 1e-300, 1e150, -1e200, 1e300};
  std::vector<double> g = RandomF64(rng, n, -0.5, 0.5);
  for (int i = 0; i < n; ++i) {
    if (rng.NextBounded(3) == 0) {
      g[i] = special[rng.NextBounded(sizeof(special) / sizeof(special[0]))];
    }
  }
  return g;
}

double AdamC1(double t) { return 1.0 - std::pow(kernels::kAdamBeta1, t); }
double AdamC2(double t) { return 1.0 - std::pow(kernels::kAdamBeta2, t); }

// t = 355 is the last step where c1 < 1.0; from 356 on both tables skip the
// m / c1 division. 12,540 is the default fit's last step.
constexpr double kAdamSteps[] = {1, 355, 356, 12540};

TEST_F(F64ExactnessTest, AdamStepBitExactEveryLength) {
  Rng rng(29);
  for (double t : kAdamSteps) {
    for (int n = 0; n <= kMaxF64Len; ++n) {
      std::vector<double> g = AdamGradients(rng, n);
      std::vector<double> ws = RandomF64(rng, n), wv = ws;
      std::vector<double> ms = RandomF64(rng, n, -0.1, 0.1), mv = ms;
      std::vector<double> vs = RandomF64(rng, n, 0.0, 0.01), vv = vs;
      scalar_.adam(ws.data(), ms.data(), vs.data(), g.data(), n, 0.004, AdamC1(t),
                   AdamC2(t));
      avx2_->adam(wv.data(), mv.data(), vv.data(), g.data(), n, 0.004, AdamC1(t),
                  AdamC2(t));
      EXPECT_TRUE(SameBits(ws, wv)) << "adam w diverges at t=" << t << " n=" << n;
      EXPECT_TRUE(SameBits(ms, mv)) << "adam m diverges at t=" << t << " n=" << n;
      EXPECT_TRUE(SameBits(vs, vv)) << "adam v diverges at t=" << t << " n=" << n;
    }
  }
}

// The step both tables skip the m / c1 division from: c1 = 1 - 0.9^t first
// rounds to exactly 1.0 at t = 356.
TEST(F64KernelsTest, AdamBiasCorrectionReachesOneAtStep356) {
  EXPECT_LT(AdamC1(355), 1.0);
  EXPECT_EQ(AdamC1(356), 1.0);
  EXPECT_LT(AdamC2(12540), 1.0);
}

// Both tables against the textbook update, which divides by c1 on every
// step: skipping the division at c1 == 1.0 must change no bit.
TEST(F64KernelsTest, AdamStepMatchesTextbookUpdate) {
  Rng rng(31);
  const double alpha = 0.004;
  for (double t : kAdamSteps) {
    const int n = 37;
    const double c1 = AdamC1(t), c2 = AdamC2(t);
    std::vector<double> g = AdamGradients(rng, n);
    std::vector<double> w = RandomF64(rng, n);
    std::vector<double> m = RandomF64(rng, n, -0.1, 0.1);
    std::vector<double> v = RandomF64(rng, n, 0.0, 0.01);
    std::vector<double> wt = w, mt = m, vt = v;
    for (int i = 0; i < n; ++i) {
      mt[i] = 0.9 * mt[i] + (1 - 0.9) * g[i];
      vt[i] = 0.999 * vt[i] + (1 - 0.999) * g[i] * g[i];
      wt[i] -= alpha * (mt[i] / c1) / (std::sqrt(vt[i] / c2) + 1e-8);
    }
    for (const F64Kernels* k : {&ScalarF64Kernels(), &kernels::ActiveF64Kernels()}) {
      std::vector<double> wk = w, mk = m, vk = v;
      k->adam(wk.data(), mk.data(), vk.data(), g.data(), n, alpha, c1, c2);
      EXPECT_TRUE(SameBits(wt, wk)) << k->name << " w at t=" << t;
      EXPECT_TRUE(SameBits(mt, mk)) << k->name << " m at t=" << t;
      EXPECT_TRUE(SameBits(vt, vk)) << k->name << " v at t=" << t;
    }
  }
}

// ---- approximation accuracy ----

TEST(TanhApproxTest, BoundedErrorOnDenseGrid) {
  double max_tanh_err = 0, max_sig_err = 0;
  for (int i = -120000; i <= 120000; ++i) {
    float x = static_cast<float>(i) * 1e-4f;  // [-12, 12], step 1e-4
    max_tanh_err = std::max(max_tanh_err,
                            std::abs(static_cast<double>(kernels::TanhApprox(x)) -
                                     std::tanh(static_cast<double>(x))));
    double sig = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
    max_sig_err = std::max(max_sig_err,
                           std::abs(static_cast<double>(kernels::SigmoidApprox(x)) - sig));
  }
  EXPECT_LT(max_tanh_err, 2.5e-4);
  EXPECT_LT(max_sig_err, 1.25e-4);
  // Saturation tails stay bounded too.
  EXPECT_NEAR(kernels::TanhApprox(50.0f), 1.0f, 2.5e-4);
  EXPECT_NEAR(kernels::TanhApprox(-50.0f), -1.0f, 2.5e-4);
  EXPECT_NEAR(kernels::SigmoidApprox(40.0f), 1.0f, 1.25e-4);
  EXPECT_NEAR(kernels::SigmoidApprox(-40.0f), 0.0f, 1.25e-4);
}

// ---- end-to-end: trained LSTM across backends ----

TEST(InferEngineTest, BackendsAgreeWithinBoundAndAreDeterministic) {
  LstmOptions opts;
  opts.hidden = 8;
  opts.fc_hidden = 6;
  opts.epochs = 6;
  LstmRegressor model(opts);
  SeqDataset data;
  data.vocab = 10;
  Rng rng(37);
  for (int i = 0; i < 24; ++i) {
    SeqExample ex;
    int len = 3 + static_cast<int>(rng.NextBounded(8));
    for (int t = 0; t < len; ++t) ex.tokens.push_back(static_cast<int>(rng.NextBounded(10)));
    ex.target = 2.0 + static_cast<double>(rng.NextBounded(40));
    data.examples.push_back(ex);
  }
  model.Fit(data);
  ASSERT_EQ(InferBackend::kF64, model.infer_backend());

  std::vector<std::vector<int>> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(data.examples[i * 3].tokens);

  std::vector<double> y64, y32;
  for (const auto& t : probes) y64.push_back(model.Predict(t));

  model.SetInferBackend(InferBackend::kF32);
  EXPECT_EQ(InferBackend::kF32, model.infer_backend());
  for (const auto& t : probes) y32.push_back(model.Predict(t));

  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_GT(y64[i], 0.0);
    // f32: only f32 rounding + the polynomial nonlinearities diverge.
    EXPECT_NEAR(y32[i], y64[i], 0.02 * y64[i] + 0.05) << "probe " << i;
  }

  // Determinism: repeat predictions are bit-identical.
  for (const auto& t : probes) {
    EXPECT_EQ(model.Predict(t), model.Predict(t));
  }

  // Copies share the engine and answer identically.
  LstmRegressor copy = model;
  for (const auto& t : probes) EXPECT_EQ(copy.Predict(t), model.Predict(t));
}

// The FC head may be much wider than the LSTM recurrence (fc_hidden >
// 4*hidden): the engine must size the head's buffers for the head, not for
// the recurrence. ASan catches an overflow here.
TEST(InferEngineTest, F32WideFcHeadStaysInBounds) {
  LstmOptions opts;
  opts.hidden = 1;
  opts.fc_hidden = 64;
  opts.epochs = 2;
  LstmRegressor model(opts);
  SeqDataset data;
  data.vocab = 5;
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    SeqExample ex;
    for (int t = 0; t < 4; ++t) ex.tokens.push_back(static_cast<int>(rng.NextBounded(5)));
    ex.target = 1.0 + static_cast<double>(i);
    data.examples.push_back(ex);
  }
  model.Fit(data);
  model.SetInferBackend(InferBackend::kF32);
  for (const auto& ex : data.examples) {
    double y = model.Predict(ex.tokens);
    EXPECT_GE(y, 0.0);
    EXPECT_EQ(y, model.Predict(ex.tokens));
  }
}

TEST(InferEngineTest, ParseAndNameRoundTrip) {
  InferBackend b = InferBackend::kF64;
  EXPECT_TRUE(ParseInferBackend("f32", &b));
  EXPECT_EQ(InferBackend::kF32, b);
  EXPECT_TRUE(ParseInferBackend("f64", &b));
  EXPECT_EQ(InferBackend::kF64, b);
  EXPECT_FALSE(ParseInferBackend("fp16", &b));
  EXPECT_EQ(InferBackend::kF64, b);  // untouched on failure
  b = InferBackend::kF32;
  EXPECT_FALSE(ParseInferBackend("int8", &b));
  EXPECT_EQ(InferBackend::kF32, b);
  EXPECT_STREQ("f64", InferBackendName(InferBackend::kF64));
  EXPECT_STREQ("f32", InferBackendName(InferBackend::kF32));
  EXPECT_FALSE(simd::FeatureString().empty());
}

}  // namespace
}  // namespace clara
