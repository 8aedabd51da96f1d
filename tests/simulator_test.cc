#include "crf/sim/simulator.h"

#include <gtest/gtest.h>

#include "crf/trace/generator.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

const CellTrace& TestCell() {
  static const CellTrace* cell = [] {
    CellProfile profile = SimCellProfile('a');
    profile.num_machines = 16;
    GeneratorOptions options;
    options.num_intervals = 2 * kIntervalsPerDay;
    auto* trace = new CellTrace(GenerateCellTrace(profile, options, Rng(33)));
    trace->FilterToServingTasks();
    return trace;
  }();
  return *cell;
}

TEST(SimulatorTest, LimitSumNeverViolatesAndNeverSaves) {
  const SimResult result = SimulateCell(TestCell(), LimitSumSpec());
  for (const MachineMetrics& m : result.machines) {
    EXPECT_EQ(m.violations, 0) << "machine " << m.machine_index;
    EXPECT_DOUBLE_EQ(m.mean_violation_severity, 0.0);
    EXPECT_NEAR(m.savings_ratio, 0.0, 1e-12);
  }
  EXPECT_NEAR(result.MeanCellSavings(), 0.0, 1e-12);
}

TEST(SimulatorTest, BorgDefaultSavingsIsExactlyOneMinusPhi) {
  const SimResult result = SimulateCell(TestCell(), BorgDefaultSpec(0.9));
  for (const MachineMetrics& m : result.machines) {
    if (m.occupied_intervals > 0) {
      // On occupied intervals P = 0.9 L (the clamp to current usage can only
      // trigger when usage > 0.9 L, which also reduces savings), so savings
      // are at most 0.1.
      EXPECT_LE(m.savings_ratio, 0.1 + 1e-9);
      EXPECT_GT(m.savings_ratio, 0.05);
    }
  }
}

TEST(SimulatorTest, ParallelMatchesSerial) {
  ThreadPool one_thread(1);
  SimOptions serial;
  serial.pool = &one_thread;
  const SimResult a = SimulateCell(TestCell(), SimulationMaxSpec(), serial);
  // The default pool, then a caller's 3-thread pool.
  ThreadPool pool(3);
  for (ThreadPool* chosen : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SimOptions parallel;
    parallel.pool = chosen;
    const SimResult b = SimulateCell(TestCell(), SimulationMaxSpec(), parallel);
    ASSERT_EQ(a.machines.size(), b.machines.size());
    for (size_t m = 0; m < a.machines.size(); ++m) {
      EXPECT_EQ(a.machines[m].violations, b.machines[m].violations);
      EXPECT_DOUBLE_EQ(a.machines[m].savings_ratio, b.machines[m].savings_ratio);
    }
    ASSERT_EQ(a.cell_savings_series.size(), b.cell_savings_series.size());
    for (size_t t = 0; t < a.cell_savings_series.size(); ++t) {
      EXPECT_NEAR(a.cell_savings_series[t], b.cell_savings_series[t], 1e-12);
    }
  }
}

TEST(SimulatorTest, ResultNamesPopulated) {
  const SimResult result = SimulateCell(TestCell(), NSigmaSpec(5.0));
  EXPECT_EQ(result.cell_name, "cell_a");
  EXPECT_EQ(result.predictor_name, "n-sigma-5");
  EXPECT_EQ(result.machines.size(), static_cast<size_t>(TestCell().num_machines()));
}

TEST(SimulatorTest, UnfilteredOracleProducesMoreViolations) {
  // The total-usage oracle includes future arrivals, so it upper-bounds the
  // filtered oracle and any predictor violates it at least as often.
  SimOptions filtered;
  SimOptions unfiltered;
  unfiltered.use_total_usage_oracle = true;
  const SimResult a = SimulateCell(TestCell(), SimulationMaxSpec(), filtered);
  const SimResult b = SimulateCell(TestCell(), SimulationMaxSpec(), unfiltered);
  for (size_t m = 0; m < a.machines.size(); ++m) {
    EXPECT_GE(b.machines[m].violations, a.machines[m].violations);
  }
}

TEST(SimulatorTest, ShorterHorizonNeverIncreasesViolations) {
  SimOptions short_horizon;
  short_horizon.horizon = 6 * kIntervalsPerHour;
  SimOptions long_horizon;
  long_horizon.horizon = kIntervalsPerDay;
  const SimResult a = SimulateCell(TestCell(), NSigmaSpec(5.0), short_horizon);
  const SimResult b = SimulateCell(TestCell(), NSigmaSpec(5.0), long_horizon);
  for (size_t m = 0; m < a.machines.size(); ++m) {
    EXPECT_LE(a.machines[m].violations, b.machines[m].violations);
  }
}

TEST(SimulatorTest, SavingsConsistentWithMeanPredictionAndLimit) {
  const SimResult result = SimulateCell(TestCell(), SimulationMaxSpec());
  for (const MachineMetrics& m : result.machines) {
    EXPECT_LE(m.mean_prediction, m.mean_limit + 1e-9);
    if (m.occupied_intervals == m.intervals && m.mean_limit > 0) {
      // Fully-occupied machines: savings should roughly match the mean gap.
      EXPECT_NEAR(m.savings_ratio, 1.0 - m.mean_prediction / m.mean_limit, 0.1);
    }
  }
}

TEST(SimulateMachineTest, AccumulatesCellSeries) {
  const CellTrace& cell = TestCell();
  std::vector<double> limit(cell.num_intervals, 0.0);
  std::vector<double> prediction(cell.num_intervals, 0.0);
  const MachineMetrics metrics =
      SimulateMachine(cell, 0, LimitSumSpec(), SimOptions{}, &limit, &prediction);
  EXPECT_EQ(metrics.machine_index, 0);
  // For limit-sum, accumulated prediction equals accumulated limit.
  for (Interval t = 0; t < cell.num_intervals; ++t) {
    EXPECT_NEAR(prediction[t], limit[t], 1e-9);
  }
}

}  // namespace
}  // namespace crf
