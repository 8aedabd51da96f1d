#include "crf/stats/p2_quantile.h"

#include <gtest/gtest.h>

#include <vector>

#include "crf/stats/percentile.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

TEST(P2QuantileTest, NoSamplesIsZero) {
  P2Quantile q(0.9);
  EXPECT_DOUBLE_EQ(q.Value(), 0.0);
}

TEST(P2QuantileTest, ExactForFewerThanFive) {
  P2Quantile q(0.5);
  q.Add(3.0);
  EXPECT_DOUBLE_EQ(q.Value(), 3.0);
  q.Add(1.0);
  EXPECT_DOUBLE_EQ(q.Value(), 2.0);  // Median of {1, 3}.
  q.Add(5.0);
  EXPECT_DOUBLE_EQ(q.Value(), 3.0);
}

// Accuracy sweep across quantiles and distributions. gtest names each case by
// the bytes of its P2Case, so the padding after `lognormal` is an explicit,
// zeroed member: left implicit, its bytes are indeterminate and the case names
// change from build to build.
struct P2Case {
  double quantile;
  bool lognormal;
  char zero_padding[7] = {};
};
static_assert(sizeof(P2Case) == 16, "P2Case must have no implicit padding");

class P2AccuracyTest : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2AccuracyTest, TracksExactQuantile) {
  const P2Case param = GetParam();
  Rng rng(31 + static_cast<uint64_t>(param.quantile * 100));
  P2Quantile estimator(param.quantile);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = param.lognormal ? rng.LogNormal(0.0, 1.0) : rng.Normal(10.0, 2.0);
    estimator.Add(x);
    samples.push_back(x);
  }
  const double exact = Percentile(samples, param.quantile * 100.0);
  // Relative tolerance; P^2 is an approximation.
  EXPECT_NEAR(estimator.Value(), exact, 0.08 * std::abs(exact) + 0.02)
      << "q=" << param.quantile << " lognormal=" << param.lognormal;
}

INSTANTIATE_TEST_SUITE_P(Sweep, P2AccuracyTest,
                         ::testing::Values(P2Case{0.5, false}, P2Case{0.9, false},
                                           P2Case{0.99, false}, P2Case{0.5, true},
                                           P2Case{0.9, true}, P2Case{0.99, true}));

TEST(P2QuantileTest, MonotoneInQuantile) {
  Rng rng(32);
  P2Quantile q50(0.5);
  P2Quantile q90(0.9);
  P2Quantile q99(0.99);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.LogNormal(0.0, 0.8);
    q50.Add(x);
    q90.Add(x);
    q99.Add(x);
  }
  EXPECT_LT(q50.Value(), q90.Value());
  EXPECT_LT(q90.Value(), q99.Value());
}

TEST(P2QuantileTest, CountTracksAdds) {
  P2Quantile q(0.9);
  for (int i = 0; i < 17; ++i) {
    q.Add(i);
  }
  EXPECT_EQ(q.count(), 17);
}

}  // namespace
}  // namespace crf
