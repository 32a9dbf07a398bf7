// Tests for the f32 inference kernels (src/ml/kernels_f32.h) and the packed
// inference engine (src/ml/infer.h).
//
// The load-bearing property is the determinism contract: the scalar and AVX2
// kernel tables must agree bit-for-bit on every input length, so a model
// served on a machine without AVX2 answers byte-identically to one with it.
// When the binary was built without SIMD or the CPU lacks AVX2+FMA, the
// bit-exactness tests skip (there is only one implementation to test).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/ml/infer.h"
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
