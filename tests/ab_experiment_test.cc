#include "crf/cluster/ab_experiment.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>

namespace crf {
namespace {

// This process's OS thread count from /proc/self/status, or -1 without /proc.
int OsThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

CellProfile SmallProfile() {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 10;
  return profile;
}

ClusterSimOptions ShortOptions() {
  ClusterSimOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 2;
  return options;
}

TEST(AnalyzeMachinesTest, LimitSumHasNoViolations) {
  ClusterSimOptions options = ShortOptions();
  options.predictor = LimitSumSpec();
  const ClusterSimResult result = RunClusterSim(SmallProfile(), options, Rng(50));
  for (const MachineOutcome& outcome : AnalyzeMachines(result)) {
    EXPECT_DOUBLE_EQ(outcome.violation_rate, 0.0) << outcome.machine_index;
    EXPECT_DOUBLE_EQ(outcome.mean_violation_severity, 0.0);
  }
}

TEST(AnalyzeMachinesTest, OutcomesAreOrderedStatistics) {
  const ClusterSimResult result = RunClusterSim(SmallProfile(), ShortOptions(), Rng(51));
  const auto outcomes = AnalyzeMachines(result);
  ASSERT_EQ(outcomes.size(), 10u);
  // A caller's serial pool gives the same outcomes as the default pool.
  ThreadPool serial(1);
  const auto serial_outcomes = AnalyzeMachines(result, kIntervalsPerDay, &serial);
  ASSERT_EQ(serial_outcomes.size(), outcomes.size());
  for (size_t m = 0; m < outcomes.size(); ++m) {
    const MachineOutcome& o = outcomes[m];
    EXPECT_GE(o.violation_rate, 0.0);
    EXPECT_LE(o.violation_rate, 1.0);
    EXPECT_LE(o.p90_latency, o.p99_latency + 1e-9);
    EXPECT_LE(o.p50_utilization, o.p99_utilization + 1e-9);
    EXPECT_GE(o.mean_utilization, 0.0);
    EXPECT_EQ(serial_outcomes[m].violation_rate, o.violation_rate);
    EXPECT_EQ(serial_outcomes[m].p99_latency, o.p99_latency);
    EXPECT_EQ(serial_outcomes[m].mean_utilization, o.mean_utilization);
  }
}

TEST(ComputeGroupMetricsTest, PopulatesAllDistributions) {
  const ClusterSimResult result = RunClusterSim(SmallProfile(), ShortOptions(), Rng(52));
  const std::vector<ClusterSimResult> results{result};
  const GroupMetrics metrics = ComputeGroupMetrics("g", results);
  EXPECT_EQ(metrics.label, "g");
  EXPECT_EQ(metrics.violation_rate.size(), 10u);
  EXPECT_EQ(metrics.machine_p90_latency.size(), 10u);
  EXPECT_FALSE(metrics.relative_savings.empty());
  EXPECT_FALSE(metrics.normalized_allocation.empty());
  EXPECT_FALSE(metrics.normalized_workload.empty());
  EXPECT_FALSE(metrics.task_latency.empty());
  EXPECT_GT(metrics.tasks_placed, 0);
  // Workload cannot exceed allocation (usage capped at limits).
  EXPECT_LE(metrics.normalized_workload.Quantile(0.5),
            metrics.normalized_allocation.Quantile(0.5));
}

TEST(ComputeGroupMetricsTest, BorgDefaultSavingsNearOneMinusPhi) {
  ClusterSimOptions options = ShortOptions();
  options.predictor = BorgDefaultSpec(0.9);
  const ClusterSimResult result = RunClusterSim(SmallProfile(), options, Rng(53));
  const std::vector<ClusterSimResult> results{result};
  const GroupMetrics metrics = ComputeGroupMetrics("control", results);
  EXPECT_NEAR(metrics.relative_savings.Quantile(0.5), 0.1, 0.02);
}

TEST(RunAbExperimentTest, PairedGroupsSeeSameWorkloadScale) {
  const std::vector<CellProfile> profiles{SmallProfile()};
  const AbExperimentResult ab = RunAbExperiment(profiles, BorgDefaultSpec(0.9),
                                                ProductionMaxSpec(), ShortOptions(), Rng(54));
  EXPECT_EQ(ab.control.label, "control");
  EXPECT_EQ(ab.experiment.label, "exp");
  EXPECT_GT(ab.control.tasks_placed, 0);
  EXPECT_GT(ab.experiment.tasks_placed, 0);
  // Same offered workload: placed counts within 30% of each other.
  const double ratio = static_cast<double>(ab.experiment.tasks_placed) /
                       static_cast<double>(ab.control.tasks_placed);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.5);
}

TEST(RunAbExperimentTest, MaxPredictorSavesMoreThanControl) {
  const std::vector<CellProfile> profiles{SmallProfile()};
  const AbExperimentResult ab = RunAbExperiment(profiles, BorgDefaultSpec(0.9),
                                                ProductionMaxSpec(), ShortOptions(), Rng(55));
  // Section 6.2: the experimental group generates more savings (>16% vs
  // ~10%); directionally, exp must beat control.
  EXPECT_GT(ab.experiment.relative_savings.Quantile(0.5),
            ab.control.relative_savings.Quantile(0.5));
}

// The analysis runs on the caller's pool too: with a 1-thread pool the whole
// experiment stays on the calling thread and ThreadPool::Default() never
// starts. The child re-executes this one test, so no pool exists before it.
TEST(RunAbExperimentDeathTest, AnalysisRunsOnTheCallersPool) {
  if (OsThreadCount() < 0) {
    GTEST_SKIP() << "/proc/self/status is not available";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ThreadPool serial(1);
        ClusterSimOptions options = ShortOptions();
        options.pool = &serial;
        const std::vector<CellProfile> profiles{SmallProfile()};
        RunAbExperiment(profiles, BorgDefaultSpec(0.9), ProductionMaxSpec(), options, Rng(56));
        _exit(OsThreadCount());
      },
      ::testing::ExitedWithCode(1), "");
}

}  // namespace
}  // namespace crf
