// Deterministic pseudo-random number generation used throughout Clara.
//
// All randomized components (program synthesis, workload generation, ML weight
// initialization) draw from this engine so that experiments are reproducible
// run-to-run given a seed.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace clara {

// xoshiro256** generator: small, fast, and good statistical quality. We avoid
// std::mt19937 so streams are stable across standard library versions.
//
// The per-draw methods are defined inline, so a loop that draws from a local
// Rng keeps the four state words in registers instead of round-tripping them
// through memory on every call.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Lemire's multiply-shift
  // method; the rare rejection loop is out of line.
  uint64_t NextBounded(uint64_t bound) {
    __uint128_t m = static_cast<__uint128_t>(NextU64()) * static_cast<__uint128_t>(bound);
    if (static_cast<uint64_t>(m) < bound) {
      m = RejectBelowThreshold(m, bound);
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Gaussian via Box-Muller; mean 0, given stddev.
  double NextGaussian(double stddev = 1.0);

  // Bernoulli trial.
  bool NextBool(double p_true = 0.5) { return NextDouble() < p_true; }

  // Samples an index according to the given non-negative weights.
  // An all-zero weight vector yields a uniform draw.
  size_t NextWeighted(const std::vector<double>& weights);

  // Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // NextBounded's slow path: redraws while the product's low word falls below
  // 2^64 mod bound, and returns the accepted product.
  __uint128_t RejectBelowThreshold(__uint128_t m, uint64_t bound);

  uint64_t s_[4];
};

// Zipf(s) sampler over ranks [0, n). Used by the workload generator for
// skewed flow popularity. Precomputes the CDF at construction; with n = 0
// every sample is rank 0.
//
// A guide table narrows each search: for n/16 equal buckets of [0, 1), it
// keeps the first rank whose CDF reaches the bucket's lower edge. The table
// has n/16 + 1 entries (16 KB for n = 65,536), small enough to stay in cache
// beside the CDF lines a search touches.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng& rng) const { return Rank(rng.NextDouble()); }

  // The smallest rank whose CDF is >= u, or n - 1 if there is none: exactly
  // what a binary search over the whole CDF returns.
  size_t Rank(double u) const;

  size_t size() const { return cdf_.size(); }
  const std::vector<double>& cdf() const { return cdf_; }
  // Buckets in the guide table; 0 when it is empty (n < 16, or a CDF that is
  // not finite), and then Rank searches the whole CDF.
  size_t guide_buckets() const { return guide_.empty() ? 0 : guide_.size() - 1; }

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;
};

}  // namespace clara

#endif  // SRC_UTIL_RNG_H_
