// Regression net for the contention-free sharded engines (DESIGN.md §8).
//
// Every parallel-path optimization (padded shard state, non-allocating pool
// dispatch, blocked range claims, deferred shard merges) rides on one
// invariant: results are BIT-identical at any shard count and any pool size.
// This suite stresses that invariant with randomized traces — mixed
// workload shapes, zero-length tasks (resident exactly one interval), heavy
// churn of one-to-two-interval tasks — replayed at shards/threads drawn
// from {1, 2, 3, 7, 8, 16} across every predictor family, and with the
// closed-loop cluster simulator run at the same pool sizes. The host may be
// single-core: pools here are deliberately oversubscribed, because the
// contract must not depend on the physical core count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "crf/cluster/cell_sim.h"
#include "crf/core/predictor_factory.h"
#include "crf/serve/replay.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

constexpr int kGridCounts[] = {1, 2, 3, 7, 8, 16};

// A randomized adversarial cell. Three workload mixes rotate by seed:
// churn-heavy (mostly one-to-two-interval tasks), service-heavy (tasks
// spanning most of the trace), and mixed. Every mix sprinkles in
// zero-length tasks (no usage samples — resident for exactly one interval
// under the sealed-trace residency rule), empty machines, tasks that
// outlive the trace, and tasks arriving on the final interval.
CellTrace ChurnCell(uint64_t seed) {
  Rng rng(seed);
  const Interval num_intervals = 36 + static_cast<Interval>(rng.UniformInt(29));
  const int num_machines = 5 + static_cast<int>(rng.UniformInt(8));
  const int mix = static_cast<int>(seed % 3);
  CellTraceBuilder builder("stress_cell", num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    if (rng.UniformDouble() < 0.1) {
      continue;  // Empty machine.
    }
    const int num_tasks = mix == 0 ? 20 + static_cast<int>(rng.UniformInt(30))
                                   : 4 + static_cast<int>(rng.UniformInt(12));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.03 + rng.UniformDouble() * 0.9;
      Interval len;
      const double shape = rng.UniformDouble();
      if (shape < 0.08) {
        len = 0;  // Zero-length: arrival and departure with no sample.
      } else if (mix == 0 || (mix == 2 && shape < 0.6)) {
        len = 1 + static_cast<Interval>(rng.UniformInt(2));  // Churn.
      } else if (shape < 0.18) {
        len = num_intervals - start + 1 + static_cast<Interval>(rng.UniformInt(4));
      } else {
        len = 1 + static_cast<Interval>(rng.UniformInt(num_intervals - start));
      }
      const int32_t index =
          builder.AddTask(id, id, m, start, limit, SchedulingClass::kLatencySensitive);
      builder.ReserveUsage(index, static_cast<size_t>(len));
      for (Interval k = 0; k < len; ++k) {
        builder.AppendUsage(index, static_cast<float>(limit * rng.UniformDouble()));
      }
    }
  }
  return builder.Seal();
}

// Every roster predictor family, short windows so small traces cover both
// the warming and warmed regimes.
PredictorSpec SpecForCase(int index) {
  switch (index % 8) {
    case 0:
      return LimitSumSpec();
    case 1:
      return BorgDefaultSpec(0.85);
    case 2:
      return NSigmaSpec(3.0, 3, 8);
    case 3:
      return RcLikeSpec(95.0, 3, 8);
    case 4:
      return AutopilotSpec(95.0, 1.2, 3, 8);
    case 5:
      return ChanceSpec(0.05, 3, 8);
    case 6:
      return FlexSpec(90.0, 1.2, 3, 8);
    default:
      return MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
  }
}

SimResult Replay(const CellTrace& cell, const PredictorSpec& spec, int num_shards,
                 bool parallel, ThreadPool* pool) {
  ReplayOptions options;
  options.num_shards = num_shards;
  options.parallel = parallel;
  options.pool = pool;
  options.latency_sample_period = 0;
  StreamReplayer replayer(cell, spec, options);
  replayer.AdvanceToEnd();
  return replayer.Finish();
}

void ExpectMachinesBitIdentical(const SimResult& got, const SimResult& want) {
  ASSERT_EQ(got.machines.size(), want.machines.size());
  for (size_t m = 0; m < want.machines.size(); ++m) {
    SCOPED_TRACE(::testing::Message() << "machine=" << m);
    const MachineMetrics& g = got.machines[m];
    const MachineMetrics& w = want.machines[m];
    ASSERT_EQ(g.occupied_intervals, w.occupied_intervals);
    ASSERT_EQ(g.violations, w.violations);
    ASSERT_EQ(g.mean_violation_severity, w.mean_violation_severity);
    ASSERT_EQ(g.savings_ratio, w.savings_ratio);
    ASSERT_EQ(g.mean_prediction, w.mean_prediction);
    ASSERT_EQ(g.mean_limit, w.mean_limit);
  }
}

class ParallelDeterminismStressTest : public ::testing::TestWithParam<int> {};

// The full shard grid, serial and parallel, against the serial batch engine.
// Per-machine metrics must be bit-identical everywhere; the merged cell
// series must be bit-identical across pool sizes at a fixed shard count, and
// bit-identical to batch at one shard.
TEST_P(ParallelDeterminismStressTest, StreamShardThreadGridBitIdenticalToSerial) {
  const int case_index = GetParam();
  const uint64_t seed = 42000 + static_cast<uint64_t>(case_index);
  const CellTrace cell = ChurnCell(seed);
  const PredictorSpec spec = SpecForCase(case_index);

  ThreadPool one_thread(1);
  SimOptions sim_options;
  sim_options.pool = &one_thread;
  const SimResult batch = SimulateCell(cell, spec, sim_options);

  for (const int num_shards : kGridCounts) {
    SCOPED_TRACE(::testing::Message() << "case=" << case_index << " shards=" << num_shards);
    const SimResult serial = Replay(cell, spec, num_shards, false, nullptr);
    ExpectMachinesBitIdentical(serial, batch);
    if (num_shards == 1) {
      EXPECT_EQ(serial.cell_savings_series, batch.cell_savings_series);
    }
    for (const int threads : kGridCounts) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      ThreadPool pool(threads);
      const SimResult parallel = Replay(cell, spec, num_shards, true, &pool);
      ExpectMachinesBitIdentical(parallel, batch);
      // Thread-count invariance is exact INCLUDING the shard-merged floats.
      ASSERT_EQ(parallel.cell_savings_series, serial.cell_savings_series);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ParallelDeterminismStressTest,
                         ::testing::Range(0, 12));

// Chunked Advance under an oversubscribed pool must be indistinguishable
// from one-shot replay: same results, same per-shard sequence numbers.
TEST(ParallelDeterminismStressChunking, ChunkedParallelAdvanceMatchesOneShot) {
  for (const uint64_t seed : {9100u, 9101u, 9102u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const CellTrace cell = ChurnCell(seed);
    const PredictorSpec spec = SpecForCase(static_cast<int>(seed));
    ThreadPool pool(7);

    ReplayOptions options;
    options.num_shards = 7;
    options.parallel = true;
    options.pool = &pool;
    options.latency_sample_period = 0;

    StreamReplayer one_shot(cell, spec, options);
    one_shot.AdvanceToEnd();

    StreamReplayer chunked(cell, spec, options);
    Rng rng(seed ^ 0x5eed);
    while (!chunked.Done()) {
      const Interval step = 1 + static_cast<Interval>(rng.UniformInt(9));
      chunked.Advance(std::min<Interval>(chunked.next_tick() + step, cell.num_intervals));
    }

    const SimResult a = one_shot.Finish();
    const SimResult b = chunked.Finish();
    ExpectMachinesBitIdentical(b, a);
    EXPECT_EQ(b.cell_savings_series, a.cell_savings_series);
    const ServeMetrics& ma = one_shot.Metrics();
    const ServeMetrics& mb = chunked.Metrics();
    ASSERT_EQ(mb.num_shards(), ma.num_shards());
    for (int s = 0; s < ma.num_shards(); ++s) {
      EXPECT_EQ(mb.shard(s).sequence, ma.shard(s).sequence) << "shard " << s;
      EXPECT_EQ(mb.shard(s).ticks, ma.shard(s).ticks) << "shard " << s;
    }
  }
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The batch engines on the default pool: the cell series reduce fixed
// machine blocks in block order, so a parallel run has the same bytes as a
// serial one however the pool hands out the blocks. 150 machines put several
// machines in each block, so a slot-order reduction would show up here.
TEST(ParallelDeterminismStressBatch, CellSeriesByteIdenticalToSerialOverRepeats) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 150;
  GeneratorOptions generator;
  generator.num_intervals = kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, generator, Rng(61));
  std::vector<PredictorSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(SpecForCase(i));
  }

  ThreadPool one_thread(1);
  SimOptions serial;
  serial.pool = &one_thread;
  const SimResult single_reference = SimulateCell(cell, specs.back(), serial);
  const std::vector<SimResult> multi_reference = SimulateCellMulti(cell, specs, serial);
  // The blocks follow the replayer's shard rule, at 64 blocks.
  EXPECT_TRUE(BytesEqual(Replay(cell, specs.back(), 64, false, nullptr).cell_savings_series,
                         single_reference.cell_savings_series));
  SimOptions parallel;
  for (int repeat = 0; repeat < 20; ++repeat) {
    SCOPED_TRACE(::testing::Message() << "repeat=" << repeat);
    const SimResult single = SimulateCell(cell, specs.back(), parallel);
    ASSERT_TRUE(BytesEqual(single.cell_savings_series, single_reference.cell_savings_series));
    const std::vector<SimResult> multi = SimulateCellMulti(cell, specs, parallel);
    ASSERT_EQ(multi.size(), multi_reference.size());
    for (size_t s = 0; s < multi.size(); ++s) {
      ASSERT_TRUE(BytesEqual(multi[s].cell_savings_series,
                             multi_reference[s].cell_savings_series))
          << "spec " << specs[s].Name();
    }
  }
}

// The closed-loop cluster simulator at every pool size in the grid, against
// its serial run: placements, counters, result series, and the sealed
// as-executed trace arena must all be byte-identical.
TEST(ParallelDeterminismStressCluster, ClusterSimPoolSizeInvariance) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 19;  // Prime: every block split is uneven.
  ClusterSimOptions options;
  options.num_intervals = 60;
  options.warmup = 12;
  ThreadPool serial(1);
  options.pool = &serial;
  const ClusterSimResult reference = RunClusterSim(profile, options, Rng(77));

  for (const int threads : kGridCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    options.pool = &pool;
    const ClusterSimResult got = RunClusterSim(profile, options, Rng(77));

    EXPECT_EQ(got.tasks_placed, reference.tasks_placed);
    EXPECT_EQ(got.tasks_timed_out, reference.tasks_timed_out);
    EXPECT_EQ(got.pending_task_intervals, reference.pending_task_intervals);
    EXPECT_EQ(got.placement_attempts, reference.placement_attempts);
    EXPECT_EQ(got.predictions, reference.predictions);
    EXPECT_EQ(got.latencies, reference.latencies);
    EXPECT_EQ(got.demand_mean, reference.demand_mean);
    EXPECT_EQ(got.limit_sum, reference.limit_sum);
    ASSERT_EQ(got.trace.arena_bytes().size(), reference.trace.arena_bytes().size());
    EXPECT_EQ(std::memcmp(got.trace.arena_bytes().data(),
                          reference.trace.arena_bytes().data(),
                          reference.trace.arena_bytes().size()),
              0);
  }
}

}  // namespace
}  // namespace crf
