#include "src/util/rng.h"

#include <cmath>
#include <numeric>

namespace clara {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
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

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

double Rng::NextGaussian(double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return stddev * std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) {
    return NextBounded(weights.size());
  }
  double r = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) {
      return i;
    }
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[NextBounded(i)]);
  }
  return p;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.resize(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& v : cdf_) {
    v /= acc;
  }
}

size_t ZipfSampler::Sample(Rng& rng) const {
  double r = rng.NextDouble();
  if (cdf_.empty()) {
    return 0;
  }
  size_t lo = 0;
  size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace clara
