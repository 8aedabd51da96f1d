// Differential test for the cluster engine: RunClusterSim (indexed placement)
// at any pool size must be byte-identical to the same loop run with the
// linear-scan reference scheduler on one thread, across cell shapes and
// packing policies. This is the determinism contract in cell_sim.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "crf/cluster/cell_sim.h"
#include "crf/cluster/cell_sim_loop.h"
#include "crf/util/thread_pool.h"
#include "reference/linear_scheduler.h"

namespace crf {
namespace {

struct EngineConfig {
  std::string label;
  bool linear = false;  // the reference scheduler instead of the library's
  ThreadPool* pool = nullptr;
};

ClusterSimResult RunEngine(const CellProfile& profile, ClusterSimOptions options,
                           const EngineConfig& config, uint64_t seed) {
  options.pool = config.pool;
  return config.linear
             ? RunClusterSimWith<reference::LinearScanScheduler>(profile, options, Rng(seed))
             : RunClusterSim(profile, options, Rng(seed));
}

// Byte-level equality of everything the simulation produces.
void ExpectIdentical(const ClusterSimResult& a, const ClusterSimResult& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.tasks_placed, b.tasks_placed);
  EXPECT_EQ(a.tasks_timed_out, b.tasks_timed_out);
  EXPECT_EQ(a.pending_task_intervals, b.pending_task_intervals);
  EXPECT_EQ(a.placement_attempts, b.placement_attempts);

  ASSERT_EQ(a.trace.num_tasks(), b.trace.num_tasks());
  for (int32_t i = 0; i < a.trace.num_tasks(); ++i) {
    const TaskView ta = a.trace.task(i);
    const TaskView tb = b.trace.task(i);
    ASSERT_EQ(ta.task_id(), tb.task_id()) << "task " << i;
    ASSERT_EQ(ta.job_id(), tb.job_id()) << "task " << i;
    ASSERT_EQ(ta.machine_index(), tb.machine_index()) << "task " << i;
    ASSERT_EQ(ta.start(), tb.start()) << "task " << i;
    ASSERT_EQ(ta.limit(), tb.limit()) << "task " << i;
    ASSERT_EQ(ta.sched_class(), tb.sched_class()) << "task " << i;
    ASSERT_EQ(ta.usage().size(), tb.usage().size()) << "task " << i;
    for (size_t k = 0; k < tb.usage().size(); ++k) {
      ASSERT_EQ(ta.usage()[k], tb.usage()[k])  // exact float equality
          << "task " << i << " sample " << k;
    }
  }
  ASSERT_EQ(a.trace.num_machines(), b.trace.num_machines());
  for (int m = 0; m < a.trace.num_machines(); ++m) {
    const std::span<const int32_t> ia = a.trace.machine_tasks(m);
    const std::span<const int32_t> ib = b.trace.machine_tasks(m);
    ASSERT_EQ(ia.size(), ib.size()) << "machine " << m;
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin())) << "machine " << m;
    const std::span<const float> pa = a.trace.true_peak(m);
    const std::span<const float> pb = b.trace.true_peak(m);
    ASSERT_EQ(pa.size(), pb.size()) << "machine " << m;
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin())) << "machine " << m;
  }

  // The strongest form of the contract: both sealed arenas are the same bytes.
  ASSERT_EQ(a.trace.arena_bytes().size(), b.trace.arena_bytes().size());
  EXPECT_EQ(std::memcmp(a.trace.arena_bytes().data(), b.trace.arena_bytes().data(),
                        b.trace.arena_bytes().size()),
            0);

  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.demand_mean, b.demand_mean);
  EXPECT_EQ(a.limit_sum, b.limit_sum);
}

// The host may be single-core, so the sharded path is exercised with
// oversubscribed pools: correctness must not depend on the physical core
// count, only on the contract that shards write disjoint slots.
class ClusterSimDifferentialTest : public ::testing::Test {
 protected:
  void RunAllConfigs(const CellProfile& profile, const ClusterSimOptions& options,
                     uint64_t seed) {
    ThreadPool pool1(1);
    ThreadPool pool2(2);
    ThreadPool pool4(4);
    ThreadPool pool5(5);
    const ClusterSimResult reference =
        RunEngine(profile, options, {"serial+linear", true, &pool1}, seed);
    const std::vector<EngineConfig> configs = {
        {"serial+indexed", false, &pool1},
        {"sharded2+indexed", false, &pool2},
        {"sharded4+indexed", false, &pool4},
        {"sharded5+indexed", false, &pool5},
        {"sharded4+linear", true, &pool4},
    };
    for (const EngineConfig& config : configs) {
      ExpectIdentical(reference, RunEngine(profile, options, config, seed), config.label);
    }
  }
};

TEST_F(ClusterSimDifferentialTest, MediumCellBestFit) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 24;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  RunAllConfigs(profile, options, 101);
}

TEST_F(ClusterSimDifferentialTest, SingleMachineCell) {
  // One machine: the sharded loop degenerates; placement has exactly one
  // candidate, exercising the empty/full boundary of the index.
  CellProfile profile = SimCellProfile('b');
  profile.num_machines = 1;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  RunAllConfigs(profile, options, 102);
}

TEST_F(ClusterSimDifferentialTest, OverloadedChurnCell) {
  // Far more task arrivals than the cell can hold, with a short pending
  // timeout: the queue churns, placements fail and retry, the fallback
  // (exclusion-ignoring) pass triggers, and timeouts shed load.
  CellProfile profile = SimCellProfile('c');
  profile.num_machines = 6;
  profile.tasks_per_machine = 120.0;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  options.pending_timeout = 4;
  RunAllConfigs(profile, options, 103);
}

TEST_F(ClusterSimDifferentialTest, WorstFitPolicy) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 16;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  options.packing = PackingPolicy::kWorstFit;
  RunAllConfigs(profile, options, 104);
}

TEST_F(ClusterSimDifferentialTest, RandomFitPolicy) {
  CellProfile profile = SimCellProfile('b');
  profile.num_machines = 16;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  options.packing = PackingPolicy::kRandomFit;
  RunAllConfigs(profile, options, 105);
}

TEST_F(ClusterSimDifferentialTest, DifferentPredictorSpec) {
  // The limit-sum predictor changes published capacities (no overcommit),
  // which shifts the placement stream; the engines must still agree.
  CellProfile profile = SimCellProfile('c');
  profile.num_machines = 12;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  options.predictor = LimitSumSpec();
  RunAllConfigs(profile, options, 106);
}

}  // namespace
}  // namespace crf
