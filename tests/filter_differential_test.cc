// CellTrace::FilterToServingTasks against the builder-based reference
// (tests/reference/filter.h): the filtered arenas must be equal byte for
// byte on heap traces with and without the rich ladder, on a mapped
// machine-major file, on a cell with no serving task, and on a cell with
// zero-length tasks.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "crf/trace/cell_profile.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_builder.h"
#include "crf/trace/trace_io.h"
#include "reference/filter.h"

namespace crf {
namespace {

// Filters `cell` both ways and requires identical traces.
void ExpectFilterMatchesReference(const CellTrace& cell) {
  const CellTrace expected = reference::FilterToServingTasks(cell);
  CellTrace filtered = cell;
  filtered.FilterToServingTasks();
  EXPECT_FALSE(filtered.is_mapped());
  EXPECT_EQ(filtered.name, expected.name);
  EXPECT_EQ(filtered.num_intervals, expected.num_intervals);
  EXPECT_EQ(filtered.dropped_tasks, expected.dropped_tasks);
  EXPECT_EQ(filtered.has_rich(), expected.has_rich());
  EXPECT_EQ(filtered.num_tasks(), expected.num_tasks());
  const std::span<const std::byte> got = filtered.arena_bytes();
  const std::span<const std::byte> want = expected.arena_bytes();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
}

CellTrace Generated(bool rich) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 12;
  GeneratorOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  options.rich_stats = rich;
  return GenerateCellTrace(profile, options, Rng(7));
}

TEST(FilterDifferentialTest, HeapTraceWithRichLadder) {
  const CellTrace cell = Generated(/*rich=*/true);
  ASSERT_TRUE(cell.has_rich());
  ExpectFilterMatchesReference(cell);
}

TEST(FilterDifferentialTest, HeapTraceWithoutRichLadder) {
  ExpectFilterMatchesReference(Generated(/*rich=*/false));
}

TEST(FilterDifferentialTest, MappedMachineMajorFile) {
  CellProfile profile = SimCellProfile('b');
  profile.num_machines = 10;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.rich_stats = true;
  const std::string path =
      (std::filesystem::temp_directory_path() / "crf_filter_differential.crftrace").string();
  std::string error;
  ASSERT_TRUE(GenerateCellTraceToFile(profile, options, Rng(11), path, &error)) << error;
  const auto cell = LoadCellTrace(path, {TraceLoadMode::kMapped}, &error);
  ASSERT_TRUE(cell.has_value()) << error;
  ASSERT_TRUE(cell->is_mapped());
  ExpectFilterMatchesReference(*cell);
  std::remove(path.c_str());
}

TEST(FilterDifferentialTest, CellWithNoServingTask) {
  CellTraceBuilder builder("batch_only", 6, 3);
  builder.set_dropped_tasks(2);
  builder.mutable_true_peak(1).assign(6, 0.5f);
  for (int i = 0; i < 5; ++i) {
    const SchedulingClass sched_class =
        i % 2 == 0 ? SchedulingClass::kBatch : SchedulingClass::kBestEffort;
    const int32_t task = builder.AddTask(i + 1, 1, i % 3, i, 0.25, sched_class);
    for (int k = 0; k < i; ++k) {
      builder.AppendUsage(task, 0.1f * static_cast<float>(k + 1));
      builder.AppendRich(task, RichUsage{.p90 = 0.1f * static_cast<float>(k + 1)});
    }
  }
  const CellTrace cell = builder.Seal();
  ASSERT_TRUE(cell.has_rich());
  ExpectFilterMatchesReference(cell);
}

TEST(FilterDifferentialTest, CellWithZeroLengthTasks) {
  CellTraceBuilder builder("zero_length", 8, 2);
  builder.mutable_true_peak(0).assign(8, 1.0f);
  builder.mutable_true_peak(1).assign(3, 2.0f);  // ragged ground truth
  const SchedulingClass classes[] = {SchedulingClass::kLatencySensitive, SchedulingClass::kBatch,
                                     SchedulingClass::kHighlySensitive};
  for (int i = 0; i < 9; ++i) {
    const int32_t task = builder.AddTask(100 + i, i / 3, (i * 5) % 2, i % 8, 0.5 + 0.125 * i,
                                         classes[i % 3]);
    for (int k = 0; k < (i % 4 == 0 ? 0 : i % 3 + 1); ++k) {
      builder.AppendUsage(task, 0.01f * static_cast<float>(i * 10 + k));
    }
  }
  ExpectFilterMatchesReference(builder.Seal());

  // Only zero-length serving tasks survive: no usage samples at all.
  CellTraceBuilder empty("zero_length_only", 4, 1);
  empty.AddTask(1, 1, 0, 0, 1.0, SchedulingClass::kLatencySensitive);
  const int32_t batch = empty.AddTask(2, 1, 0, 1, 1.0, SchedulingClass::kBatch);
  empty.AppendUsage(batch, 0.5f);
  empty.AppendRich(batch, RichUsage{.p90 = 0.5f});
  ExpectFilterMatchesReference(empty.Seal());
}

}  // namespace
}  // namespace crf
