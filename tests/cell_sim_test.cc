#include "crf/cluster/cell_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "crf/util/byte_io.h"

namespace crf {
namespace {

CellProfile SmallProfile() {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 12;
  return profile;
}

ClusterSimOptions ShortOptions(PredictorSpec spec = BorgDefaultSpec(0.9)) {
  ClusterSimOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 2;
  options.predictor = std::move(spec);
  return options;
}

class CellSimFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new ClusterSimResult(RunClusterSim(SmallProfile(), ShortOptions(), Rng(44)));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static ClusterSimResult* result_;
};

ClusterSimResult* CellSimFixture::result_ = nullptr;

TEST_F(CellSimFixture, ShapesAreConsistent) {
  EXPECT_EQ(result_->cell_name, "cell_a");
  EXPECT_EQ(result_->predictor_name, "borg-default-0.90");
  EXPECT_EQ(result_->trace.num_machines(), 12);
  EXPECT_EQ(result_->predictions.num_machines(), 12);
  EXPECT_EQ(result_->latencies.num_machines(), 12);
  EXPECT_EQ(result_->predictions.num_intervals(), result_->trace.num_intervals);
  EXPECT_EQ(result_->limit_sum.num_intervals(), result_->trace.num_intervals);
  EXPECT_GT(result_->tasks_placed, 100);
  EXPECT_GE(result_->placement_attempts, result_->tasks_placed);
}

TEST_F(CellSimFixture, PlacedTasksHaveValidMachinesAndUsage) {
  EXPECT_EQ(static_cast<int64_t>(result_->trace.num_tasks()), result_->tasks_placed);
  for (int32_t i = 0; i < result_->trace.num_tasks(); ++i) {
    const TaskView task = result_->trace.task(i);
    ASSERT_GE(task.machine_index(), 0);
    ASSERT_LT(task.machine_index(), 12);
    EXPECT_GE(task.start(), 1);  // Tasks start the interval after placement.
    EXPECT_LE(task.end(), result_->trace.num_intervals);
    EXPECT_FALSE(task.usage().empty());
    for (const float u : task.usage()) {
      ASSERT_GE(u, 0.0f);
      ASSERT_LE(u, static_cast<float>(task.limit()) * 1.0001f);
    }
  }
}

TEST_F(CellSimFixture, TraceIndicesConsistent) {
  std::set<int32_t> seen;
  for (int m = 0; m < result_->trace.num_machines(); ++m) {
    for (const int32_t index : result_->trace.machine_tasks(m)) {
      EXPECT_EQ(result_->trace.task(index).machine_index(), m);
      EXPECT_TRUE(seen.insert(index).second);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(result_->trace.num_tasks()));
}

TEST_F(CellSimFixture, CellFillsUpDuringWarmup) {
  // Mean demand across machines should be much higher at the end than in the
  // first intervals (the cell starts empty).
  double early = 0.0;
  double late = 0.0;
  const Interval last = result_->trace.num_intervals - 1;
  for (int m = 0; m < result_->demand_mean.num_machines(); ++m) {
    early += result_->demand_mean.at(m, 2);
    late += result_->demand_mean.at(m, last);
  }
  EXPECT_GT(late, early * 2.0);
}

TEST(CellSimTest, LimitSumPredictorNeverOvercommits) {
  // With the no-overcommit predictor the scheduler's feasibility check is
  // prediction(=sum of limits) + new limit <= capacity, so the sum of
  // resident limits can never exceed capacity.
  ClusterSimResult result =
      RunClusterSim(SmallProfile(), ShortOptions(LimitSumSpec()), Rng(45));
  for (int m = 0; m < result.trace.num_machines(); ++m) {
    for (Interval t = 0; t < result.trace.num_intervals; ++t) {
      EXPECT_LE(result.limit_sum.at(m, t), result.trace.machine_capacity(m) + 1e-6);
    }
  }
}

TEST(CellSimTest, OvercommittingPredictorPacksDenser) {
  ClusterSimResult conservative =
      RunClusterSim(SmallProfile(), ShortOptions(LimitSumSpec()), Rng(46));
  ClusterSimResult overcommit =
      RunClusterSim(SmallProfile(), ShortOptions(BorgDefaultSpec(0.8)), Rng(46));
  const Interval last = conservative.trace.num_intervals - 1;
  double conservative_alloc = 0.0;
  double overcommit_alloc = 0.0;
  for (int m = 0; m < conservative.limit_sum.num_machines(); ++m) {
    conservative_alloc += conservative.limit_sum.at(m, last);
    overcommit_alloc += overcommit.limit_sum.at(m, last);
  }
  EXPECT_GT(overcommit_alloc, conservative_alloc * 1.05);
}

TEST(CellSimTest, DeterministicGivenSeed) {
  const ClusterSimResult a = RunClusterSim(SmallProfile(), ShortOptions(), Rng(47));
  const ClusterSimResult b = RunClusterSim(SmallProfile(), ShortOptions(), Rng(47));
  EXPECT_EQ(a.tasks_placed, b.tasks_placed);
  ASSERT_EQ(a.trace.num_tasks(), b.trace.num_tasks());
  for (int32_t i = 0; i < a.trace.num_tasks(); ++i) {
    const TaskView ta = a.trace.task(i);
    const TaskView tb = b.trace.task(i);
    ASSERT_EQ(ta.machine_index(), tb.machine_index());
    ASSERT_EQ(ta.usage().size(), tb.usage().size());
    for (size_t k = 0; k < tb.usage().size(); ++k) {
      ASSERT_EQ(ta.usage()[k], tb.usage()[k]);
    }
  }
  EXPECT_EQ(a.predictions, b.predictions);
}

// Pins the closed-loop cell's bytes across commits: the sealed trace
// (placements, per-task p90 usage, true peaks) and the per-machine series
// the machine step publishes. The expected values were recorded by running
// RunClusterSim at commit c2fc6f1, before ClusterMachine::Step moved onto
// MachineUsageKernel.
uint64_t BytesHash(std::span<const std::byte> bytes) {
  return Xxh64({reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()});
}

uint64_t SeriesHash(const MachineIntervalSeries& series) {
  std::vector<float> values;
  for (Interval t = 0; t < series.num_intervals(); ++t) {
    const std::span<const float> row = series.IntervalRow(t);
    values.insert(values.end(), row.begin(), row.end());
  }
  return BytesHash(std::as_bytes(std::span<const float>(values)));
}

TEST(CellSimGoldenTest, TraceAndSeriesHashesMatchRecordedValues) {
  const ClusterSimResult result = RunClusterSim(SmallProfile(), ShortOptions(), Rng(48));
  EXPECT_EQ(BytesHash(result.trace.arena_bytes()), 0x9b6f14a666cb289aull);
  EXPECT_EQ(SeriesHash(result.predictions), 0xaf1a528f492ccc5dull);
  EXPECT_EQ(SeriesHash(result.demand_mean), 0xd46b7909e5db81fcull);
  EXPECT_EQ(SeriesHash(result.latencies), 0xa15cd6480dcb2cb1ull);
}

TEST(CellSimTest, PendingTimeoutBoundsQueue) {
  // An absurdly overloaded cell must shed load through timeouts rather than
  // grow the queue without bound.
  CellProfile profile = SmallProfile();
  profile.num_machines = 4;
  profile.tasks_per_machine = 200.0;
  ClusterSimOptions options = ShortOptions();
  options.num_intervals = kIntervalsPerDay;
  options.pending_timeout = 6;
  const ClusterSimResult result = RunClusterSim(profile, options, Rng(48));
  EXPECT_GT(result.tasks_timed_out, 0);
}

}  // namespace
}  // namespace crf
