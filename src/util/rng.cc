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

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

__uint128_t Rng::RejectBelowThreshold(__uint128_t m, uint64_t bound) {
  const uint64_t t = -bound % bound;
  while (static_cast<uint64_t>(m) < t) {
    m = static_cast<__uint128_t>(NextU64()) * static_cast<__uint128_t>(bound);
  }
  return m;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::NextGaussian(double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return stddev * std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

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
  // A finite positive total makes the CDF non-decreasing; otherwise (a NaN
  // exponent) there is no order to guide a search by. Ranks are kept as
  // 32-bit values.
  const size_t buckets = n / 16;
  if (buckets == 0 || !std::isfinite(acc) || !(acc > 0.0) || n - 1 > UINT32_MAX) {
    return;
  }
  guide_.resize(buckets + 1);
  size_t rank = 0;
  for (size_t k = 0; k <= buckets; ++k) {
    const double edge = static_cast<double>(k) / static_cast<double>(buckets);
    while (rank < n - 1 && cdf_[rank] < edge) {
      ++rank;
    }
    guide_[k] = static_cast<uint32_t>(rank);
  }
}

size_t ZipfSampler::Rank(double u) const {
  if (cdf_.empty()) {
    return 0;
  }
  const size_t last = cdf_.size() - 1;
  size_t lo = 0;
  size_t hi = last;
  if (!guide_.empty()) {
    const size_t buckets = guide_.size() - 1;
    const double scaled = u * static_cast<double>(buckets);
    const size_t k = !(scaled > 0.0)                         ? 0
                     : scaled < static_cast<double>(buckets) ? static_cast<size_t>(scaled)
                                                             : buckets - 1;
    lo = guide_[k];
    hi = guide_[k + 1];
    // The bucket is computed in floating point and the edges were rounded, so
    // widen the bracket until it provably holds the answer:
    // cdf[lo - 1] < u <= cdf[hi] (or lo == 0, or hi == last).
    while (lo > 0 && !(cdf_[lo - 1] < u)) {
      --lo;
    }
    while (hi < last && cdf_[hi] < u) {
      ++hi;
    }
  }
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace clara
