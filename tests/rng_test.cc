#include "crf/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "crf/util/byte_io.h"

namespace crf {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += a.NextUint64() != b.NextUint64() ? 1 : 0;
  }
  EXPECT_GE(differing, 60);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng root(77);
  Rng a = root.Fork(5);
  Rng b = root.Fork(5);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, ForkWithDifferentTagsDiffers) {
  Rng root(77);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += a.NextUint64() != b.NextUint64() ? 1 : 0;
  }
  EXPECT_GE(differing, 60);
}

TEST(RngTest, ForkDoesNotPerturbParent) {
  Rng a(9);
  Rng b(9);
  (void)a.Fork(3);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, ConsecutiveForkTagsAreIndependent) {
  // The child of tag k and the child of tag k+1 must not be correlated (the
  // generator forks per task id).
  Rng root(1234);
  std::vector<double> x;
  std::vector<double> y;
  for (uint64_t tag = 0; tag < 500; ++tag) {
    x.push_back(root.Fork(tag).UniformDouble());
    y.push_back(root.Fork(tag + 1).UniformDouble());
  }
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= x.size();
  mean_y /= y.size();
  double cov = 0.0;
  double vx = 0.0;
  double vy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    cov += (x[i] - mean_x) * (y[i] - mean_y);
    vx += (x[i] - mean_x) * (x[i] - mean_x);
    vy += (y[i] - mean_y) * (y[i] - mean_y);
  }
  EXPECT_LT(std::abs(cov / std::sqrt(vx * vy)), 0.15);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformIntBoundsAndCoverage) {
  Rng rng(6);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(8);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(rng.LogNormal(1.0, 0.5));
  }
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(samples[10000], std::exp(1.0), 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(4.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(10);
  for (const double mean : {0.5, 3.0, 20.0, 200.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const int x = rng.Poisson(mean);
      ASSERT_GE(x, 0);
      sum += x;
    }
    EXPECT_NEAR(sum / n, mean, 0.05 * mean + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(11);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BoundedParetoWithinBounds) {
  Rng rng(12);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.BoundedPareto(1.0, 100.0, 1.2);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 100.0);
  }
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(13);
  for (const double shape : {0.5, 1.0, 2.5, 9.0}) {
    double sum = 0.0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
      const double x = rng.Gamma(shape);
      ASSERT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum / n, shape, 0.05 * shape + 0.02) << "shape=" << shape;
  }
}

TEST(RngTest, BetaMomentsAndRange) {
  Rng rng(14);
  const double a = 2.0;
  const double b = 5.0;
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Beta(a, b);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, a / (a + b), 0.01);
}

TEST(RngTest, GeometricMean) {
  Rng rng(15);
  const double p = 0.2;
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const int x = rng.Geometric(p);
    ASSERT_GE(x, 1);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / p, 0.15);
}

TEST(RngTest, GeometricProbabilityOneAlwaysOne) {
  Rng rng(16);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.Geometric(1.0), 1);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(18);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, SplitMix64KnownValues) {
  // Reference values from the SplitMix64 reference implementation with
  // initial state 0.
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(state), 0x6e789e6aa1b965f4ULL);
}

// The first 10^5 draws of seed 1 for each libm-free distribution, hashed
// as raw doubles. These streams feed every generated cell, so a change here
// changes every generated trace (and the generator and cell-sim goldens).
template <typename Draw>
uint64_t DrawStreamHash(Draw draw) {
  Rng rng(1);
  std::vector<double> draws(100000);
  for (double& x : draws) {
    x = draw(rng);
  }
  std::vector<uint8_t> bytes(draws.size() * sizeof(double));
  std::memcpy(bytes.data(), draws.data(), bytes.size());
  return Xxh64(bytes);
}

TEST(RngGoldenTest, DrawStreamsMatchRecordedHashes) {
  EXPECT_EQ(DrawStreamHash([](Rng& rng) { return rng.Normal(); }), 0xa69d489a64f0f9aaull)
      << "Normal";
  EXPECT_EQ(DrawStreamHash([](Rng& rng) { return rng.LogNormal(0.0, 1.0); }),
            0x7b1169f0f0314185ull)
      << "LogNormal";
  EXPECT_EQ(DrawStreamHash([](Rng& rng) { return rng.Exponential(1.0); }),
            0x6d3c379c7b85191cull)
      << "Exponential";
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(RngTest, ZigguratMatchesNormalCdf) {
  // Binned chi-square against the exact normal CDF. The bins cover both
  // signs, the layer boundary at the base strip (r = 3.6541528853610088)
  // and the tail beyond it, where draws come from the tail sampler.
  constexpr double kR = 3.6541528853610088;
  std::vector<double> edges = {-std::numeric_limits<double>::infinity(), -4.2, -3.9, -kR};
  for (int k = -36; k <= 36; ++k) {
    edges.push_back(0.1 * k);
  }
  for (const double x : {kR, 3.9, 4.2, std::numeric_limits<double>::infinity()}) {
    edges.push_back(x);
  }
  const int bins = static_cast<int>(edges.size()) - 1;
  std::vector<int64_t> counts(bins, 0);
  Rng rng(2024);
  const int64_t n = 4000000;
  int64_t beyond_r = 0;
  for (int64_t i = 0; i < n; ++i) {
    const double x = rng.Normal();
    beyond_r += std::abs(x) > kR ? 1 : 0;
    const auto it = std::upper_bound(edges.begin(), edges.end(), x);
    ++counts[(it - edges.begin()) - 1];
  }
  double chi2 = 0.0;
  for (int b = 0; b < bins; ++b) {
    const double expected = n * (NormalCdf(edges[b + 1]) - NormalCdf(edges[b]));
    ASSERT_GT(expected, 40.0) << "bin " << b;
    const double diff = static_cast<double>(counts[b]) - expected;
    chi2 += diff * diff / expected;
  }
  // 80 bins, 79 degrees of freedom: mean 79, sd 12.6; 160 is p < 1e-6.
  EXPECT_LT(chi2, 160.0);
  // The tail sampler runs on both sides: about 1033 draws past r.
  const double tail_expected = 2.0 * n * NormalCdf(-kR);
  EXPECT_NEAR(static_cast<double>(beyond_r), tail_expected, 5.0 * std::sqrt(tail_expected));
  EXPECT_GT(counts.front(), 0);
  EXPECT_GT(counts.back(), 0);
}

TEST(RngTest, ZigguratTailMatchesTruncatedNormal) {
  // Draws past r come from the tail sampler. Their shape is a small part of
  // the chi-square above, so test it alone: |x| given |x| > r against the
  // truncated normal CDF (Kolmogorov-Smirnov), and both signs equally often.
  constexpr double kR = 3.6541528853610088;
  Rng rng(2025);
  std::vector<double> tail;
  int64_t negative = 0;
  for (int64_t i = 0; i < 40000000; ++i) {
    const double x = rng.Normal();
    if (std::abs(x) > kR) {
      tail.push_back(std::abs(x));
      negative += x < 0.0 ? 1 : 0;
    }
  }
  const double n = static_cast<double>(tail.size());
  ASSERT_GT(n, 9000.0);  // about 10,300 expected
  EXPECT_NEAR(static_cast<double>(negative), n / 2, 5.0 * std::sqrt(n / 4));
  std::sort(tail.begin(), tail.end());
  const double tail_mass = NormalCdf(-kR);
  double d = 0.0;
  for (size_t k = 0; k < tail.size(); ++k) {
    const double cdf = 1.0 - NormalCdf(-tail[k]) / tail_mass;
    d = std::max({d, std::abs(cdf - k / n), std::abs(cdf - (k + 1) / n)});
  }
  // sqrt(n) * D above 2.7 has p < 1e-6. Accepting every exponential
  // proposal, without the rejection step, gives D of about 0.037 here.
  EXPECT_LT(std::sqrt(n) * d, 2.7) << "D = " << d;
}

double RelativeError(double got, double want) { return std::abs(got - want) / std::abs(want); }

TEST(IeeeMathTest, ExpMatchesLibmOnSampledArguments) {
  Rng rng(31);
  double worst = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    const double x = rng.Uniform(-40.0, 40.0);
    worst = std::max(worst, RelativeError(IeeeExp(x), std::exp(x)));
  }
  EXPECT_LE(worst, 1e-12);
  // Near the ends of the normal range, where 2^e is applied in two halves.
  for (const double x : {-708.5, -700.0, 700.0, 708.5, 709.7}) {
    EXPECT_LE(RelativeError(IeeeExp(x), std::exp(x)), 1e-12) << x;
  }
}

TEST(IeeeMathTest, LogMatchesLibmOnSampledArguments) {
  Rng rng(32);
  double worst = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    // Uniform on (0, 1], and log-uniform down to 2^-1000.
    double x = 1.0 - rng.UniformDouble();
    if (i % 2 == 1) {
      x = std::ldexp(x, -static_cast<int>(rng.UniformInt(1000)));
    }
    if (x == 1.0) {
      EXPECT_EQ(IeeeLog(x), 0.0);
      continue;
    }
    worst = std::max(worst, RelativeError(IeeeLog(x), std::log(x)));
  }
  EXPECT_LE(worst, 1e-12);
  for (const double x : {std::numeric_limits<double>::denorm_min(), 1e-310, 2.0, 1e300,
                         std::numeric_limits<double>::max()}) {
    EXPECT_LE(RelativeError(IeeeLog(x), std::log(x)), 1e-12) << x;
  }
}

TEST(IeeeMathTest, EdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(IeeeExp(0.0), 1.0);
  EXPECT_EQ(IeeeExp(-0.0), 1.0);
  EXPECT_EQ(IeeeLog(1.0), 0.0);
  // Overflow gives +inf; deep underflow gives 0.
  EXPECT_EQ(IeeeExp(709.79), inf);
  EXPECT_EQ(IeeeExp(710.0), inf);
  EXPECT_EQ(IeeeExp(1e300), inf);
  EXPECT_EQ(IeeeExp(inf), inf);
  EXPECT_EQ(IeeeExp(-746.0), 0.0);
  EXPECT_EQ(IeeeExp(-1e300), 0.0);
  EXPECT_EQ(IeeeExp(-inf), 0.0);
  EXPECT_TRUE(std::isnan(IeeeExp(std::nan(""))));
  // The largest finite result and a subnormal one.
  EXPECT_TRUE(std::isfinite(IeeeExp(709.78)));
  const double tiny = IeeeExp(-740.0);
  EXPECT_GT(tiny, 0.0);
  EXPECT_LE(std::abs(tiny - std::exp(-740.0)), 2 * std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(IeeeLog(0.0), -inf);
  EXPECT_EQ(IeeeLog(-0.0), -inf);
  EXPECT_EQ(IeeeLog(inf), inf);
  EXPECT_TRUE(std::isnan(IeeeLog(-1.0)));
  EXPECT_TRUE(std::isnan(IeeeLog(-inf)));
  EXPECT_TRUE(std::isnan(IeeeLog(std::nan(""))));
}

}  // namespace
}  // namespace crf
