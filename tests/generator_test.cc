#include "crf/trace/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "crf/stats/running_stats.h"
#include "crf/trace/trace_io.h"
#include "crf/trace/trace_stats.h"
#include "crf/util/byte_io.h"

namespace crf {
namespace {

CellProfile SmallProfile() {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 24;
  return profile;
}

GeneratorOptions ShortOptions() {
  GeneratorOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  return options;
}

class GeneratorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cell_ = new CellTrace(GenerateCellTrace(SmallProfile(), ShortOptions(), Rng(99)));
  }
  static void TearDownTestSuite() {
    delete cell_;
    cell_ = nullptr;
  }
  static CellTrace* cell_;
};

CellTrace* GeneratorFixture::cell_ = nullptr;

TEST_F(GeneratorFixture, BasicShape) {
  EXPECT_EQ(cell_->name, "cell_a");
  EXPECT_EQ(cell_->num_intervals, ShortOptions().num_intervals);
  EXPECT_EQ(cell_->num_machines(), 24);
  EXPECT_GT(cell_->num_tasks(), 200);
}

TEST_F(GeneratorFixture, TasksLieWithinTrace) {
  for (int32_t i = 0; i < cell_->num_tasks(); ++i) {
    const TaskView task = cell_->task(i);
    EXPECT_GE(task.start(), 0);
    EXPECT_LE(task.end(), cell_->num_intervals);
    EXPECT_GE(task.runtime(), 1);
    EXPECT_GT(task.limit(), 0.0);
  }
}

TEST_F(GeneratorFixture, UsageRespectsLimits) {
  for (int32_t i = 0; i < cell_->num_tasks(); ++i) {
    const TaskView task = cell_->task(i);
    for (const float u : task.usage()) {
      ASSERT_GE(u, 0.0f);
      ASSERT_LE(u, static_cast<float>(task.limit()) * 1.0001f);
    }
  }
}

TEST_F(GeneratorFixture, MachineIndicesConsistent) {
  std::set<int32_t> seen;
  for (int m = 0; m < cell_->num_machines(); ++m) {
    for (const int32_t index : cell_->machine_tasks(m)) {
      ASSERT_GE(index, 0);
      ASSERT_LT(index, cell_->num_tasks());
      EXPECT_EQ(cell_->task(index).machine_index(), m);
      EXPECT_TRUE(seen.insert(index).second) << "task on two machines";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(cell_->num_tasks()));
}

TEST_F(GeneratorFixture, PlacementRespectsAllocCap) {
  const CellProfile profile = SmallProfile();
  for (int m = 0; m < cell_->num_machines(); ++m) {
    const std::vector<double> limits = cell_->MachineLimitSeries(m);
    for (const double l : limits) {
      EXPECT_LE(l, profile.target_alloc_ratio * profile.machine_capacity + 1e-9);
    }
  }
}

TEST_F(GeneratorFixture, PopulationNearTarget) {
  const CellProfile profile = SmallProfile();
  const double target = profile.tasks_per_machine * profile.num_machines;
  // Average resident population across the second day should be within 25%
  // of the controller target.
  double total = 0.0;
  int count = 0;
  for (Interval t = kIntervalsPerDay; t < cell_->num_intervals; t += 8) {
    int64_t resident = 0;
    for (int32_t i = 0; i < cell_->num_tasks(); ++i) {
      resident += cell_->task(i).ResidentAt(t) ? 1 : 0;
    }
    total += static_cast<double>(resident);
    ++count;
  }
  const double average = total / count;
  EXPECT_GT(average, 0.75 * target);
  EXPECT_LT(average, 1.25 * target);
}

TEST_F(GeneratorFixture, TruePeakCoversUsageApproximately) {
  // The within-interval peak is a max over correlated sub-samples of what
  // the p90 scalars aggregate, so it should be at least ~80% of the scalar
  // sum and usually above it.
  for (int m = 0; m < 4; ++m) {
    const std::vector<double> usage = cell_->MachineUsageSeries(m);
    const std::span<const float> true_peak = cell_->true_peak(m);
    ASSERT_EQ(true_peak.size(), usage.size());
    for (size_t t = 0; t < usage.size(); t += 16) {
      if (usage[t] > 0.05) {
        EXPECT_GT(true_peak[t], 0.8 * usage[t]);
      }
    }
  }
}

TEST_F(GeneratorFixture, MixOfSchedulingClasses) {
  int serving = 0;
  for (int32_t i = 0; i < cell_->num_tasks(); ++i) {
    serving += IsServing(cell_->task(i).sched_class()) ? 1 : 0;
  }
  const double fraction = static_cast<double>(serving) / cell_->num_tasks();
  EXPECT_GT(fraction, 0.6);
  EXPECT_LT(fraction, 0.95);
}

TEST(GeneratorTest, DeterministicAcrossRuns) {
  const CellTrace a = GenerateCellTrace(SmallProfile(), ShortOptions(), Rng(5));
  const CellTrace b = GenerateCellTrace(SmallProfile(), ShortOptions(), Rng(5));
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (int32_t i = 0; i < a.num_tasks(); ++i) {
    const TaskView ta = a.task(i);
    const TaskView tb = b.task(i);
    EXPECT_EQ(ta.task_id(), tb.task_id());
    EXPECT_EQ(ta.machine_index(), tb.machine_index());
    EXPECT_EQ(ta.start(), tb.start());
    ASSERT_EQ(ta.usage().size(), tb.usage().size());
    for (size_t k = 0; k < tb.usage().size(); ++k) {
      ASSERT_EQ(ta.usage()[k], tb.usage()[k]);
    }
  }
  // Determinism extends to the packed arena itself: same seed, same bytes.
  ASSERT_EQ(a.arena_bytes().size(), b.arena_bytes().size());
  EXPECT_EQ(std::memcmp(a.arena_bytes().data(), b.arena_bytes().data(),
                        b.arena_bytes().size()),
            0);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const CellTrace a = GenerateCellTrace(SmallProfile(), ShortOptions(), Rng(5));
  const CellTrace b = GenerateCellTrace(SmallProfile(), ShortOptions(), Rng(6));
  // Task counts will almost surely differ; if not, usage will.
  bool different = a.num_tasks() != b.num_tasks();
  if (!different) {
    different = a.usage_sample_count() != b.usage_sample_count() ||
                std::memcmp(a.usage_arena().data(), b.usage_arena().data(),
                            b.usage_arena().size() * sizeof(float)) != 0;
  }
  EXPECT_TRUE(different);
}

TEST(GeneratorTest, RichStatsPopulatedOnDemand) {
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.rich_stats = true;
  CellProfile profile = SmallProfile();
  profile.num_machines = 8;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(7));
  ASSERT_TRUE(cell.has_rich());
  for (int32_t i = 0; i < cell.num_tasks(); ++i) {
    const TaskView task = cell.task(i);
    const std::span<const float> usage = task.usage();
    const std::span<const float> p90 = task.rich_column(RichColumn::kP90);
    const std::span<const float> p50 = task.rich_column(RichColumn::kP50);
    const std::span<const float> max = task.rich_column(RichColumn::kMax);
    ASSERT_EQ(p90.size(), usage.size());
    for (size_t k = 0; k < usage.size(); ++k) {
      EXPECT_FLOAT_EQ(p90[k], usage[k]);
      EXPECT_LE(p50[k], max[k]);
    }
  }
}

TEST(GeneratorTest, NoRichStatsByDefault) {
  CellProfile profile = SmallProfile();
  profile.num_machines = 4;
  GeneratorOptions options;
  options.num_intervals = 48;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(8));
  EXPECT_FALSE(cell.has_rich());
}

// The thread pool is a pure throughput knob for the default (unsharded)
// generator: per-machine usage generation shards across it, but the bytes
// must not move.
TEST(GeneratorShardedTest, PoolAloneDoesNotChangeUnshardedBytes) {
  const CellTrace reference = GenerateCellTrace(SmallProfile(), ShortOptions(), Rng(21));
  ThreadPool pool(4);
  GeneratorOptions options = ShortOptions();
  options.pool = &pool;
  const CellTrace got = GenerateCellTrace(SmallProfile(), options, Rng(21));
  ASSERT_EQ(got.arena_bytes().size(), reference.arena_bytes().size());
  EXPECT_EQ(std::memcmp(got.arena_bytes().data(), reference.arena_bytes().data(),
                        reference.arena_bytes().size()),
            0);
}

// Sharded placement determinism: fixed (seed, placement_shards) means
// byte-identical cells at any pool size, including no pool at all.
TEST(GeneratorShardedTest, ShardedPlacementDeterministicAcrossPools) {
  GeneratorOptions options = ShortOptions();
  options.placement_shards = 4;
  options.placement_probes = 4;
  const CellTrace reference = GenerateCellTrace(SmallProfile(), options, Rng(21));
  EXPECT_GT(reference.num_tasks(), 200);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    options.pool = &pool;
    const CellTrace got = GenerateCellTrace(SmallProfile(), options, Rng(21));
    ASSERT_EQ(got.arena_bytes().size(), reference.arena_bytes().size());
    EXPECT_EQ(std::memcmp(got.arena_bytes().data(), reference.arena_bytes().data(),
                          reference.arena_bytes().size()),
              0);
  }
}

// The shard count is part of the cell identity, like the seed: different
// shard counts give different (both valid) cells.
TEST(GeneratorShardedTest, ShardCountIsPartOfCellIdentity) {
  GeneratorOptions options = ShortOptions();
  options.placement_shards = 2;
  const CellTrace two = GenerateCellTrace(SmallProfile(), options, Rng(21));
  options.placement_shards = 4;
  const CellTrace four = GenerateCellTrace(SmallProfile(), options, Rng(21));
  const bool identical =
      two.arena_bytes().size() == four.arena_bytes().size() &&
      std::memcmp(two.arena_bytes().data(), four.arena_bytes().data(),
                  four.arena_bytes().size()) == 0;
  EXPECT_FALSE(identical);
}

// Packing quality of the sharded placer stays close to the global worst-fit
// reference: similar placed counts and stranded-capacity fractions. Uses a
// 48-machine cell so each of the 4 shards holds enough machines for the
// comparison to be meaningful (at ~6 machines per shard the end-of-run
// headroom is dominated by granularity noise).
TEST(GeneratorShardedTest, MeasurePlacementPhaseQualityNearGlobal) {
  CellProfile profile = SmallProfile();
  profile.num_machines = 48;
  GeneratorOptions options = ShortOptions();
  const PlacementPhaseStats global = MeasurePlacementPhase(profile, options, Rng(33));
  options.placement_shards = 4;
  const PlacementPhaseStats sharded = MeasurePlacementPhase(profile, options, Rng(33));

  ASSERT_GT(global.tasks_placed, 0);
  ASSERT_GT(sharded.tasks_placed, 0);
  EXPECT_EQ(global.placement_attempts, global.tasks_placed + global.dropped_tasks);
  EXPECT_EQ(sharded.placement_attempts, sharded.tasks_placed + sharded.dropped_tasks);
  EXPECT_GE(global.stranded_fraction, 0.0);
  EXPECT_LE(global.stranded_fraction, 1.0);
  EXPECT_GE(sharded.stranded_fraction, 0.0);
  EXPECT_LE(sharded.stranded_fraction, 1.0);
  // Within 10% of the global engine on both placed volume and stranding.
  EXPECT_GE(sharded.tasks_placed, (global.tasks_placed * 90) / 100);
  EXPECT_LE(sharded.tasks_placed, (global.tasks_placed * 110) / 100);
  EXPECT_LE(sharded.stranded_fraction, global.stranded_fraction + 0.10);
}

// Golden hashes pin the generated bytes across commits; the differential
// tests above only compare two paths of one build, which a drifting RNG
// stream or summary would pass. The expected values were recorded by
// running the generator at commit c2fc6f1, before its heap and streamed
// usage loops were merged into MachineUsageKernel. A deliberate change to
// the generated cells must re-record them and say so.
uint64_t ArenaHash(const CellTrace& cell) {
  const std::span<const std::byte> arena = cell.arena_bytes();
  return Xxh64({reinterpret_cast<const uint8_t*>(arena.data()), arena.size()});
}

uint64_t StreamedArenaHash(const GeneratorOptions& options) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "crf_generator_golden.crftrace").string();
  std::string error;
  EXPECT_TRUE(GenerateCellTraceToFile(SmallProfile(), options, Rng(7), path, &error)) << error;
  const auto cell = LoadCellTrace(path, {TraceLoadMode::kHeap}, &error);
  EXPECT_TRUE(cell.has_value()) << error;
  std::remove(path.c_str());
  return cell.has_value() ? ArenaHash(*cell) : 0;
}

TEST(GeneratorGoldenTest, ArenaHashesMatchRecordedValues) {
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  GeneratorOptions rich = options;
  rich.rich_stats = true;
  GeneratorOptions sharded = options;
  sharded.placement_shards = 4;
  sharded.placement_probes = 4;

  const auto heap = [](const GeneratorOptions& o) {
    return ArenaHash(GenerateCellTrace(SmallProfile(), o, Rng(7)));
  };
  EXPECT_EQ(heap(options), 0x1163026cc77be0faull) << "heap";
  EXPECT_EQ(heap(rich), 0x5652a1613782e5b9ull) << "heap rich";
  EXPECT_EQ(StreamedArenaHash(options), 0x36cecfc66f534b08ull) << "streamed";
  EXPECT_EQ(StreamedArenaHash(rich), 0xd1f2d0f6e34b19a1ull) << "streamed rich";
  EXPECT_EQ(heap(sharded), 0x41c7066e0f07b187ull) << "sharded placement with probes";
}

TEST(GeneratorTest, UsageToLimitTailNearCalibration) {
  // Fig 7(c): p95 of usage/limit should land in the ~0.85-1.0 band that
  // justifies borg-default's phi = 0.9.
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 32;
  GeneratorOptions options;
  options.num_intervals = 3 * kIntervalsPerDay;
  CellTrace cell = GenerateCellTrace(profile, options, Rng(11));
  const Ecdf cdf = UsageToLimitCdf(cell, 4);
  EXPECT_GT(cdf.Quantile(0.95), 0.80);
  EXPECT_GT(cdf.Quantile(0.5), 0.25);
  EXPECT_LT(cdf.Quantile(0.5), 0.70);
}

}  // namespace
}  // namespace crf
