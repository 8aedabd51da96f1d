// End-to-end pipeline tests: generate -> filter -> simulate -> metrics, and
// trace persistence round trip feeding the simulator.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_io.h"
#include "crf/trace/trace_stats.h"

namespace crf {
namespace {

CellTrace Pipeline(uint64_t seed) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 20;
  GeneratorOptions options;
  options.num_intervals = 3 * kIntervalsPerDay;
  CellTrace cell = GenerateCellTrace(profile, options, Rng(seed));
  cell.FilterToServingTasks();
  return cell;
}

TEST(IntegrationTest, FullSimPipelineProducesSensibleMetrics) {
  const CellTrace cell = Pipeline(90);
  for (const PredictorSpec& spec :
       {BorgDefaultSpec(0.9), RcLikeSpec(99.0), NSigmaSpec(5.0), SimulationMaxSpec()}) {
    const SimResult result = SimulateCell(cell, spec);
    EXPECT_EQ(result.machines.size(), static_cast<size_t>(cell.num_machines()));
    for (const MachineMetrics& m : result.machines) {
      EXPECT_GE(m.violation_rate(), 0.0);
      EXPECT_LE(m.violation_rate(), 1.0);
      EXPECT_GE(m.mean_violation_severity, 0.0);
      EXPECT_LE(m.mean_violation_severity, 1.0);
      EXPECT_LE(m.savings_ratio, 1.0);
    }
    EXPECT_FALSE(result.cell_savings_series.empty());
  }
}

TEST(IntegrationTest, BinaryTraceSimulatesExactly) {
  const CellTrace cell = Pipeline(94);
  const std::string path =
      (std::filesystem::temp_directory_path() / "crf_integration.crftrace").string();
  ASSERT_TRUE(SaveCellTraceBinary(cell, path, nullptr));
  const auto loaded = LoadCellTrace(path);
  ASSERT_TRUE(loaded.has_value());

  // Binary persistence is lossless, so the simulation replays bit-for-bit.
  const SimResult original = SimulateCell(cell, SimulationMaxSpec());
  const SimResult replayed = SimulateCell(*loaded, SimulationMaxSpec());
  ASSERT_EQ(original.machines.size(), replayed.machines.size());
  for (size_t m = 0; m < original.machines.size(); ++m) {
    EXPECT_EQ(original.machines[m].violations, replayed.machines[m].violations);
    EXPECT_DOUBLE_EQ(original.machines[m].savings_ratio, replayed.machines[m].savings_ratio);
    EXPECT_DOUBLE_EQ(original.machines[m].mean_prediction,
                     replayed.machines[m].mean_prediction);
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, TraceStatsAgreeWithSimulatorView) {
  const CellTrace cell = Pipeline(92);
  // Cell limit series from trace_stats equals the sum of the simulator's
  // per-machine limit accumulation.
  const std::vector<double> cell_limit = CellLimitSeries(cell);
  std::vector<double> accumulated(cell.num_intervals, 0.0);
  std::vector<double> predictions(cell.num_intervals, 0.0);
  for (int m = 0; m < cell.num_machines(); ++m) {
    SimulateMachine(cell, m, LimitSumSpec(), SimOptions{}, &accumulated, &predictions);
  }
  for (Interval t = 0; t < cell.num_intervals; ++t) {
    EXPECT_NEAR(accumulated[t], cell_limit[t], 1e-6);
    // Limit-sum prediction == limit.
    EXPECT_NEAR(predictions[t], cell_limit[t], 1e-6);
  }
}

TEST(IntegrationTest, AllSimCellsGenerateAndSimulate) {
  for (char letter = 'a'; letter <= 'h'; ++letter) {
    CellProfile profile = SimCellProfile(letter);
    profile.num_machines = 6;
    GeneratorOptions options;
    options.num_intervals = kIntervalsPerDay;
    CellTrace cell = GenerateCellTrace(profile, options, Rng(93 + letter));
    cell.FilterToServingTasks();
    const SimResult result = SimulateCell(cell, SimulationMaxSpec());
    EXPECT_EQ(result.cell_name, profile.name);
    EXPECT_EQ(result.machines.size(), 6u);
  }
}

}  // namespace
}  // namespace crf
