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
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Gaussian via Box-Muller; mean 0, given stddev.
  double NextGaussian(double stddev = 1.0);

  // Bernoulli trial.
  bool NextBool(double p_true = 0.5);

  // Samples an index according to the given non-negative weights.
  // An all-zero weight vector yields a uniform draw.
  size_t NextWeighted(const std::vector<double>& weights);

  // Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

 private:
  uint64_t s_[4];
};

// Zipf(s) sampler over ranks [0, n). Used by the workload generator for
// skewed flow popularity. Precomputes the CDF at construction; with n = 0
// every sample is rank 0.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng& rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace clara

#endif  // SRC_UTIL_RNG_H_
