#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace clara {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian(2.0);
    sum += g;
    sq += g * g;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.NextWeighted(w)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 2);
  EXPECT_LT(counts[2], counts[1] * 4);
}

TEST(Rng, WeightedAllZeroFallsBackToUniform) {
  Rng rng(19);
  std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextWeighted(w));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(23);
  auto p = rng.Permutation(50);
  std::set<size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
  Rng rng(29);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], 1000);
}

TEST(ZipfSampler, CoversSupport) {
  Rng rng(31);
  ZipfSampler zipf(4, 0.5);
  std::set<size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(zipf.Sample(rng));
  }
  EXPECT_EQ(seen.size(), 4u);
}

// What ZipfSampler::Rank must return: a plain lower bound over the whole
// CDF, or the last rank when every entry is below `u`.
size_t PlainLowerBound(const std::vector<double>& cdf, double u) {
  size_t i = static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(i, cdf.size() - 1);
}

const std::pair<size_t, double> kZipfShapes[] = {
    {65536, 0.4}, {64, 1.1}, {1000, 1.2}, {4, 0.5}, {1, 1.0}};

TEST(ZipfSampler, SampleEqualsPlainLowerBound) {
  for (auto [n, s] : kZipfShapes) {
    ZipfSampler zipf(n, s);
    Rng sampled(n * 7919 + 1);
    Rng drawn = sampled;  // the same stream, read as raw doubles
    for (int i = 0; i < 1000000; ++i) {
      size_t want = PlainLowerBound(zipf.cdf(), drawn.NextDouble());
      ASSERT_EQ(zipf.Sample(sampled), want) << "n " << n << ", s " << s << ", draw " << i;
    }
  }
}

// The guide table's bucket edges and the CDF's own values are where a search
// bracket that is one entry short would return a neighbouring rank.
TEST(ZipfSampler, RankEqualsPlainLowerBoundAtEveryBoundary) {
  for (auto [n, s] : kZipfShapes) {
    ZipfSampler zipf(n, s);
    const size_t buckets = zipf.guide_buckets();
    EXPECT_EQ(buckets, n / 16) << "n " << n;
    std::vector<double> points = {0.0, 1.0};
    for (size_t k = 0; k <= buckets && buckets > 0; ++k) {
      points.push_back(static_cast<double>(k) / static_cast<double>(buckets));
    }
    points.insert(points.end(), zipf.cdf().begin(), zipf.cdf().end());
    for (double r : points) {
      for (double u : {std::nextafter(r, 0.0), r, std::nextafter(r, 2.0)}) {
        if (u < 0.0 || u >= 1.0) {
          continue;  // outside NextDouble's range
        }
        ASSERT_EQ(zipf.Rank(u), PlainLowerBound(zipf.cdf(), u))
            << "n " << n << ", s " << s << ", u " << u;
      }
    }
  }
}

}  // namespace
}  // namespace clara
