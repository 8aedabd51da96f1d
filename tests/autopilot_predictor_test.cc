// The autopilot-like per-task limit baseline (paper Section 2.2), run through
// CreatePredictor — the one-spec SweepBank every production path uses.

#include <gtest/gtest.h>

#include "crf/core/predictor_factory.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

std::unique_ptr<PeakPredictor> Autopilot(double percentile, double margin,
                                         Interval warmup = 2) {
  return CreatePredictor(AutopilotSpec(percentile, margin, warmup, /*history=*/50));
}

std::vector<TaskSample> OneTask(double usage, double limit) {
  return {{1, usage, limit}};
}

TEST(AutopilotPredictorTest, WarmupUsesLimit) {
  auto predictor = Autopilot(98.0, 1.1, /*warmup=*/3);
  predictor->Observe(0, OneTask(0.1, 0.9));
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.9);
}

TEST(AutopilotPredictorTest, AppliesMarginToPercentile) {
  auto predictor = Autopilot(100.0, 1.2, /*warmup=*/1);
  // Descending stream so the current-usage clamp does not mask the estimate.
  predictor->Observe(0, OneTask(0.5, 2.0));
  predictor->Observe(1, OneTask(0.3, 2.0));
  // p100 of {0.5, 0.3} = 0.5; with margin 1.2 -> 0.6, below the limit 2.0.
  EXPECT_NEAR(predictor->PredictPeak(), 0.6, 1e-6);
}

TEST(AutopilotPredictorTest, NeverExceedsConfiguredLimit) {
  auto predictor = Autopilot(100.0, 2.0, /*warmup=*/1);
  predictor->Observe(0, OneTask(0.55, 0.6));
  predictor->Observe(1, OneTask(0.40, 0.6));
  // margin * p100 = 1.1 would exceed the limit; capped per task at 0.6.
  EXPECT_LE(predictor->PredictPeak(), 0.6 + 1e-12);
}

TEST(AutopilotPredictorTest, DropsDepartedTasks) {
  auto predictor = Autopilot(98.0, 1.1, /*warmup=*/1);
  predictor->Observe(0, OneTask(0.5, 1.0));
  predictor->Observe(1, {});
  EXPECT_DOUBLE_EQ(predictor->PredictPeak(), 0.0);
}

TEST(AutopilotPredictorTest, Name) {
  auto predictor = Autopilot(98.0, 1.1);
  EXPECT_EQ(predictor->name(), "autopilot-p98-m1.10");
  EXPECT_EQ(AutopilotSpec().Name(), "autopilot-p98-m1.10");
}

TEST(AutopilotPredictorDeathTest, RejectsMarginBelowOne) {
  EXPECT_DEATH(Autopilot(98.0, 0.9), "CHECK failed");
}

TEST(AutopilotPredictorTest, PredictsAboveRcLikeSamePercentile) {
  // margin >= 1 and the per-task cap only binds when RC-like would also be
  // near the limit, so autopilot >= rc-like at the same percentile.
  auto autopilot = Autopilot(95.0, 1.15, /*warmup=*/1);
  auto rc = CreatePredictor(RcLikeSpec(95.0, /*warmup=*/1, /*history=*/50));
  Rng rng(5);
  for (Interval t = 0; t < 100; ++t) {
    const auto tasks = OneTask(0.4 * rng.UniformDouble(), 1.0);
    autopilot->Observe(t, tasks);
    rc->Observe(t, tasks);
    EXPECT_GE(autopilot->PredictPeak(), rc->PredictPeak() - 1e-12);
  }
}

TEST(AutopilotPredictorTest, LeavesPoolingGapOnTheTable) {
  // The paper's Section 2.2 claim: per-task limit tuning saves less than
  // machine-level peak prediction. On a realistic cell, autopilot's savings
  // sit well below RC-like's at a similar percentile.
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 12;
  GeneratorOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  CellTrace cell = GenerateCellTrace(profile, options, Rng(77));
  cell.FilterToServingTasks();

  const SimResult autopilot = SimulateCell(cell, AutopilotSpec(98.0, 1.10));
  const SimResult rc = SimulateCell(cell, RcLikeSpec(98.0));
  EXPECT_LT(autopilot.MeanCellSavings(), rc.MeanCellSavings());
  // And, being more conservative, it violates no more often.
  EXPECT_LE(autopilot.MeanViolationRate(), rc.MeanViolationRate() + 1e-9);
}

}  // namespace
}  // namespace crf
