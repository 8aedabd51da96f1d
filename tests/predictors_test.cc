#include <gtest/gtest.h>

#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/util/rng.h"

// Hand-computed expectations for each family, run through CreatePredictor —
// the one-spec SweepBank every production path uses.

namespace crf {
namespace {

std::vector<TaskSample> Tasks(std::vector<std::pair<double, double>> usage_limit) {
  std::vector<TaskSample> samples;
  TaskId id = 1;
  for (const auto& [usage, limit] : usage_limit) {
    samples.push_back({id++, usage, limit});
  }
  return samples;
}

TEST(ClampPredictionTest, ClampsBothSides) {
  EXPECT_DOUBLE_EQ(ClampPrediction(5.0, 1.0, 3.0), 3.0);   // Above limit sum.
  EXPECT_DOUBLE_EQ(ClampPrediction(0.5, 1.0, 3.0), 1.0);   // Below current usage.
  EXPECT_DOUBLE_EQ(ClampPrediction(2.0, 1.0, 3.0), 2.0);   // In range.
  EXPECT_DOUBLE_EQ(ClampPrediction(9.0, 5.0, 3.0), 3.0);   // usage > limits: limit wins.
}

TEST(ClampPredictionTest, EdgeCases) {
  // Empty machine: everything is zero, prediction pinned to zero.
  EXPECT_DOUBLE_EQ(ClampPrediction(0.0, 0.0, 0.0), 0.0);
  // A negative raw prediction (possible from mean - correction style
  // estimators) clamps up to current usage.
  EXPECT_DOUBLE_EQ(ClampPrediction(-2.0, 0.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(ClampPrediction(-2.0, 0.4, 3.0), 0.4);
  // Boundary equalities pass through untouched.
  EXPECT_DOUBLE_EQ(ClampPrediction(1.0, 1.0, 3.0), 1.0);  // raw == usage_now
  EXPECT_DOUBLE_EQ(ClampPrediction(3.0, 1.0, 3.0), 3.0);  // raw == limit_sum
  EXPECT_DOUBLE_EQ(ClampPrediction(2.0, 2.0, 2.0), 2.0);  // fully degenerate
  // Zero limits with nonzero usage (overcommitted beyond enforcement):
  // the limit cap still wins.
  EXPECT_DOUBLE_EQ(ClampPrediction(5.0, 1.0, 0.0), 0.0);
}

TEST(LimitSumPredictorTest, SumsLimits) {
  auto predictor = CreatePredictor(LimitSumSpec());
  predictor->Observe(0, Tasks({{0.1, 0.5}, {0.2, 0.7}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 1.2);
  EXPECT_EQ(predictor->name(), "limit-sum");
}

TEST(LimitSumPredictorTest, TracksDepartures) {
  auto predictor = CreatePredictor(LimitSumSpec());
  predictor->Observe(0, Tasks({{0.1, 0.5}, {0.2, 0.7}}));
  predictor->Observe(1, Tasks({{0.1, 0.5}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.5);
}

TEST(LimitSumPredictorTest, EmptyMachinePredictsZero) {
  auto predictor = CreatePredictor(LimitSumSpec());
  predictor->Observe(0, {});
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);
}

TEST(BorgDefaultPredictorTest, ScalesLimitSum) {
  auto predictor = CreatePredictor(BorgDefaultSpec(0.9));
  predictor->Observe(0, Tasks({{0.1, 1.0}, {0.1, 1.0}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 1.8);
  EXPECT_EQ(predictor->name(), "borg-default-0.90");
}

TEST(BorgDefaultPredictorTest, NeverBelowCurrentUsage) {
  auto predictor = CreatePredictor(BorgDefaultSpec(0.5));
  predictor->Observe(0, Tasks({{0.9, 1.0}}));
  // 0.5 * 1.0 = 0.5 < current usage 0.9; clamped up.
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.9);
}

TEST(BorgDefaultPredictorTest, PhiOneIsNoOvercommit) {
  auto predictor = CreatePredictor(BorgDefaultSpec(1.0));
  predictor->Observe(0, Tasks({{0.2, 0.6}, {0.1, 0.4}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 1.0);
}

TEST(BorgDefaultPredictorDeathTest, RejectsInvalidPhi) {
  EXPECT_DEATH(CreatePredictor(BorgDefaultSpec(0.0)), "CHECK failed");
  EXPECT_DEATH(CreatePredictor(BorgDefaultSpec(1.5)), "CHECK failed");
}

TEST(RcLikePredictorTest, WarmupUsesLimit) {
  auto predictor = CreatePredictor(RcLikeSpec(95.0, /*warmup=*/3, /*history=*/10));
  predictor->Observe(0, Tasks({{0.1, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.8);
  predictor->Observe(1, Tasks({{0.1, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.8);
  // Third sample completes the warm-up: prediction becomes the percentile of
  // the constant stream.
  predictor->Observe(2, Tasks({{0.1, 0.8}}));
  EXPECT_NEAR(predictor->PredictPeak(), 0.1, 1e-6);
}

TEST(RcLikePredictorTest, PercentileOverWindow) {
  auto predictor = CreatePredictor(RcLikeSpec(50.0, /*warmup=*/1, /*history=*/100));
  // Descending so the clamp to current usage (the final 0) does not mask the
  // percentile.
  for (Interval t = 0; t < 5; ++t) {
    predictor->Observe(t, Tasks({{static_cast<double>(4 - t), 10.0}}));
  }
  // Median of {4,3,2,1,0} is 2.
  EXPECT_NEAR(predictor->PredictPeak(), 2.0, 1e-9);
}

TEST(RcLikePredictorTest, DepartedTaskStateDropped) {
  auto predictor = CreatePredictor(RcLikeSpec(99.0, /*warmup=*/1, /*history=*/10));
  predictor->Observe(0, Tasks({{0.5, 1.0}, {0.3, 1.0}}));
  predictor->Observe(1, {});  // Both departed.
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);
  // Re-arrival of the same id starts a fresh warm-up (limit-based).
  auto fresh = CreatePredictor(RcLikeSpec(99.0, /*warmup=*/2, /*history=*/10));
  fresh->Observe(0, Tasks({{0.5, 1.0}}));
  fresh->Observe(1, {});
  fresh->Observe(2, Tasks({{0.5, 1.0}}));
  EXPECT_DOUBLE_EQ(fresh->PredictPeak(), 1.0);  // Warming up again.
}

TEST(RcLikePredictorTest, HigherPercentilePredictsHigher) {
  auto p50 = CreatePredictor(RcLikeSpec(50.0, /*warmup=*/1, /*history=*/50));
  auto p99 = CreatePredictor(RcLikeSpec(99.0, /*warmup=*/1, /*history=*/50));
  Rng rng(80);
  for (Interval t = 0; t < 50; ++t) {
    const auto tasks = Tasks({{rng.UniformDouble(), 2.0}});
    p50->Observe(t, tasks);
    p99->Observe(t, tasks);
  }
  EXPECT_LT(p50->PredictPeak(), p99->PredictPeak());
}

TEST(RcLikePredictorTest, NameIncludesPercentile) {
  auto predictor = CreatePredictor(RcLikeSpec(95.0, 3, 10));
  EXPECT_EQ(predictor->name(), "rc-like-p95");
}

TEST(NSigmaPredictorTest, ConstantUsageConverges) {
  auto predictor = CreatePredictor(NSigmaSpec(5.0, /*warmup=*/2, /*history=*/20));
  for (Interval t = 0; t < 30; ++t) {
    predictor->Observe(t, Tasks({{0.4, 1.0}}));
  }
  // Zero variance: prediction = mean = 0.4.
  EXPECT_NEAR(predictor->PredictPeak(), 0.4, 1e-9);
}

TEST(NSigmaPredictorTest, WarmingTasksContributeLimit) {
  auto predictor = CreatePredictor(NSigmaSpec(3.0, /*warmup=*/5, /*history=*/20));
  predictor->Observe(0, Tasks({{0.1, 0.7}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.7);
}

TEST(NSigmaPredictorTest, HigherNPredictsHigher) {
  Rng rng(81);
  auto n2 = CreatePredictor(NSigmaSpec(2.0, /*warmup=*/1, /*history=*/50));
  auto n10 = CreatePredictor(NSigmaSpec(10.0, /*warmup=*/1, /*history=*/50));
  for (Interval t = 0; t < 60; ++t) {
    const auto tasks = Tasks({{0.3 + 0.1 * rng.Normal(), 5.0}});
    n2->Observe(t, tasks);
    n10->Observe(t, tasks);
  }
  EXPECT_LT(n2->PredictPeak(), n10->PredictPeak());
}

TEST(NSigmaPredictorTest, ClampedToLimitSum) {
  auto predictor = CreatePredictor(NSigmaSpec(10.0, /*warmup=*/1, /*history=*/10));
  Rng rng(82);
  for (Interval t = 0; t < 20; ++t) {
    predictor->Observe(t, Tasks({{rng.UniformDouble() * 0.5, 0.5}}));
  }
  EXPECT_LE(predictor->PredictPeak(), 0.5 + 1e-12);
}

TEST(NSigmaPredictorTest, Name) {
  auto predictor = CreatePredictor(NSigmaSpec(5.0, 3, 10));
  EXPECT_EQ(predictor->name(), "n-sigma-5");
}

// The warm-up boundary is exact: with min_num_samples = 3, a task still
// contributes its limit after 2 samples and switches to usage-driven on the
// observation where its 3rd sample lands.
TEST(NSigmaPredictorTest, WarmupBoundaryIsExact) {
  auto predictor = CreatePredictor(NSigmaSpec(5.0, /*warmup=*/3, /*history=*/10));
  // Constant zero usage makes the warmed prediction exactly 0, so the
  // limit-vs-usage switch is unmistakable.
  predictor->Observe(0, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.8);  // 1 sample: warming.
  predictor->Observe(1, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.8);  // min_num_samples - 1: warming.
  predictor->Observe(2, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);  // min_num_samples: warmed.
}

TEST(RcLikePredictorTest, WarmupBoundaryIsExact) {
  auto predictor = CreatePredictor(RcLikeSpec(99.0, /*warmup=*/3, /*history=*/10));
  predictor->Observe(0, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.8);
  predictor->Observe(1, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.8);
  predictor->Observe(2, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);
}

// Per the Observe contract, a machine whose tasks all depart must release
// its per-task state: the same task id re-arriving starts a fresh warm-up
// instead of inheriting the old sample count.
TEST(NSigmaPredictorTest, AllTasksDepartReleasesState) {
  auto predictor = CreatePredictor(NSigmaSpec(5.0, /*warmup=*/2, /*history=*/10));
  predictor->Observe(0, Tasks({{0.0, 0.6}}));
  predictor->Observe(1, Tasks({{0.0, 0.6}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);  // Warmed.
  predictor->Observe(2, {});  // Machine empties.
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);
  // Same id returns: warm-up restarts from zero samples.
  predictor->Observe(3, Tasks({{0.0, 0.6}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.6);
  predictor->Observe(4, Tasks({{0.0, 0.6}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);  // Warmed again.
}

// Reset() must behave exactly like a freshly constructed instance with the
// same configuration — the contract the simulator's predictor pool relies on.
TEST(PredictorResetTest, ResetEqualsFreshInstance) {
  Rng rng(83);
  const std::vector<PredictorSpec> specs = {
      LimitSumSpec(), BorgDefaultSpec(0.8), NSigmaSpec(4.0, 2, 8), RcLikeSpec(95.0, 2, 8),
      AutopilotSpec(98.0, 1.1, 2, 8), MaxSpec({NSigmaSpec(3.0, 2, 8), RcLikeSpec(90.0, 2, 8)})};
  for (const PredictorSpec& spec : specs) {
    SCOPED_TRACE(spec.Name());
    auto pooled = CreatePredictor(spec);
    // Pollute with one machine's history, then Reset.
    for (Interval t = 0; t < 12; ++t) {
      pooled->Observe(t, Tasks({{rng.UniformDouble(), 1.0}, {rng.UniformDouble(), 0.5}}));
    }
    pooled->Reset();

    auto fresh = CreatePredictor(spec);
    Rng replay(84);
    for (Interval t = 0; t < 12; ++t) {
      const double u1 = replay.UniformDouble();
      const double u2 = replay.UniformDouble();
      const auto tasks = Tasks({{u1, 0.9}, {u2, 0.7}});
      pooled->Observe(t, tasks);
      fresh->Observe(t, tasks);
      EXPECT_DOUBLE_EQ(pooled->PredictPeak(), fresh->PredictPeak()) << "t=" << t;
    }
  }
}

TEST(MaxPredictorTest, TakesPointwiseMax) {
  auto predictor = CreatePredictor(MaxSpec({BorgDefaultSpec(0.5), LimitSumSpec()}));
  predictor->Observe(0, Tasks({{0.1, 1.0}}));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 1.0);  // limit-sum dominates.
  EXPECT_EQ(predictor->name(), "max(borg-default-0.50,limit-sum)");
}

TEST(MaxPredictorTest, AtLeastEachComponent) {
  Rng rng(83);
  auto max_predictor =
      CreatePredictor(MaxSpec({NSigmaSpec(3.0, /*warmup=*/2, /*history=*/20),
                               RcLikeSpec(90.0, /*warmup=*/2, /*history=*/20)}));
  auto n_sigma = CreatePredictor(NSigmaSpec(3.0, 2, 20));
  auto rc = CreatePredictor(RcLikeSpec(90.0, 2, 20));
  for (Interval t = 0; t < 40; ++t) {
    const auto tasks =
        Tasks({{rng.UniformDouble() * 0.5, 0.8}, {rng.UniformDouble() * 0.3, 0.4}});
    max_predictor->Observe(t, tasks);
    n_sigma->Observe(t, tasks);
    rc->Observe(t, tasks);
    EXPECT_GE(max_predictor->PredictPeak(), n_sigma->PredictPeak() - 1e-12);
    EXPECT_GE(max_predictor->PredictPeak(), rc->PredictPeak() - 1e-12);
  }
}

TEST(MaxPredictorDeathTest, RequiresComponents) {
  EXPECT_DEATH(CreatePredictor(MaxSpec({})), "CHECK failed");
}

}  // namespace
}  // namespace crf
