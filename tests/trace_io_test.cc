#include "crf/trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "crf/trace/generator.h"
#include "crf/trace/trace_builder.h"

namespace crf {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("crf_trace_io_" + name)).string();
}

CellTrace SmallCell(uint64_t seed, bool rich = false) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 6;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.rich_stats = rich;
  return GenerateCellTrace(profile, options, Rng(seed));
}

// Full structural equality through the public view API; tolerance covers the
// text format's decimal round-trip (the binary format must be exact).
void ExpectTracesEqual(const CellTrace& a, const CellTrace& b, double tolerance) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_intervals, b.num_intervals);
  EXPECT_EQ(a.dropped_tasks, b.dropped_tasks);
  EXPECT_EQ(a.has_rich(), b.has_rich());
  ASSERT_EQ(a.num_machines(), b.num_machines());
  for (int m = 0; m < b.num_machines(); ++m) {
    EXPECT_DOUBLE_EQ(a.machine_capacity(m), b.machine_capacity(m));
    const std::span<const float> peak_a = a.true_peak(m);
    const std::span<const float> peak_b = b.true_peak(m);
    ASSERT_EQ(peak_a.size(), peak_b.size());
    for (size_t t = 0; t < peak_b.size(); ++t) {
      EXPECT_NEAR(peak_a[t], peak_b[t], tolerance);
    }
    const std::span<const int32_t> tasks_a = a.machine_tasks(m);
    const std::span<const int32_t> tasks_b = b.machine_tasks(m);
    ASSERT_EQ(tasks_a.size(), tasks_b.size());
    for (size_t k = 0; k < tasks_b.size(); ++k) {
      EXPECT_EQ(tasks_a[k], tasks_b[k]);
    }
  }
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (int32_t i = 0; i < b.num_tasks(); ++i) {
    const TaskView ta = a.task(i);
    const TaskView tb = b.task(i);
    EXPECT_EQ(ta.task_id(), tb.task_id());
    EXPECT_EQ(ta.job_id(), tb.job_id());
    EXPECT_EQ(ta.machine_index(), tb.machine_index());
    EXPECT_EQ(ta.start(), tb.start());
    EXPECT_EQ(ta.sched_class(), tb.sched_class());
    EXPECT_NEAR(ta.limit(), tb.limit(), tolerance * (1.0 + tb.limit()));
    const std::span<const float> usage_a = ta.usage();
    const std::span<const float> usage_b = tb.usage();
    ASSERT_EQ(usage_a.size(), usage_b.size());
    for (size_t k = 0; k < usage_b.size(); ++k) {
      EXPECT_NEAR(usage_a[k], usage_b[k], tolerance);
    }
    if (b.has_rich()) {
      for (int c = 0; c < kNumRichColumns; ++c) {
        const std::span<const float> col_a = ta.rich_column(static_cast<RichColumn>(c));
        const std::span<const float> col_b = tb.rich_column(static_cast<RichColumn>(c));
        ASSERT_EQ(col_a.size(), col_b.size());
        for (size_t k = 0; k < col_b.size(); ++k) {
          EXPECT_NEAR(col_a[k], col_b[k], tolerance);
        }
      }
    }
  }
}

TEST(TraceIoTest, TextRoundTripPreservesEverything) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("roundtrip.trace");
  ASSERT_TRUE(SaveCellTrace(original, path, nullptr));
  const auto loaded = LoadCellTrace(path);
  ASSERT_TRUE(loaded.has_value());
  ExpectTracesEqual(*loaded, original, 1e-4);
  std::remove(path.c_str());
}

TEST(TraceIoTest, BinaryRoundTripIsExact) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("roundtrip.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const auto loaded = LoadCellTrace(path);
  ASSERT_TRUE(loaded.has_value());
  ExpectTracesEqual(*loaded, original, 0.0);

  // The loaded arena is byte-identical to the sealed original: the on-disk
  // payload IS the in-memory layout.
  const std::span<const std::byte> bytes_a = loaded->arena_bytes();
  const std::span<const std::byte> bytes_b = original.arena_bytes();
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_EQ(std::memcmp(bytes_a.data(), bytes_b.data(), bytes_b.size()), 0);
  std::remove(path.c_str());
}

TEST(TraceIoTest, BinaryRoundTripPreservesRichLadderAndDroppedTasks) {
  CellTrace original = SmallCell(5, /*rich=*/true);
  ASSERT_TRUE(original.has_rich());
  const std::string path = TempPath("rich.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const auto loaded = LoadCellTrace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->has_rich());
  EXPECT_EQ(loaded->dropped_tasks, original.dropped_tasks);
  ExpectTracesEqual(*loaded, original, 0.0);
  std::remove(path.c_str());
}

TEST(TraceIoTest, BinaryMatchesTextLoad) {
  const CellTrace original = SmallCell(7);
  const std::string text_path = TempPath("pair.trace");
  const std::string binary_path = TempPath("pair.crftrace");
  ASSERT_TRUE(SaveCellTrace(original, text_path, nullptr));
  ASSERT_TRUE(SaveCellTraceBinary(original, binary_path, nullptr));
  const auto from_text = LoadCellTrace(text_path);
  const auto from_binary = LoadCellTrace(binary_path);
  ASSERT_TRUE(from_text.has_value());
  ASSERT_TRUE(from_binary.has_value());
  // Both decoders hand back the same trace, up to text decimal precision.
  ExpectTracesEqual(*from_text, *from_binary, 1e-4);
  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
}

TEST(TraceIoTest, BinaryRoundTripOfEmptyTrace) {
  CellTraceBuilder builder("empty", /*num_intervals=*/12, /*num_machines=*/0);
  builder.set_dropped_tasks(4);
  const CellTrace original = builder.Seal();
  const std::string path = TempPath("empty.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const auto loaded = LoadCellTrace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, "empty");
  EXPECT_EQ(loaded->num_intervals, 12);
  EXPECT_EQ(loaded->dropped_tasks, 4);
  EXPECT_EQ(loaded->num_tasks(), 0);
  std::remove(path.c_str());
}

TEST(TraceIoTest, WritersReportUnwritablePath) {
  const CellTrace cell = SmallCell(13);
  const std::string path = TempPath("missing_dir/never_written.trace");
  std::string error;
  EXPECT_FALSE(SaveCellTrace(cell, path, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(SaveCellTraceBinary(cell, path, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TraceIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadCellTrace("/nonexistent/path/file.trace").has_value());
}

TEST(TraceIoTest, WrongMagicReturnsNullopt) {
  const std::string path = TempPath("bad_magic.trace");
  {
    std::ofstream out(path);
    out << "not a trace\n";
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, CorruptedBinaryHeaderReturnsNullopt) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("corrupt_header.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));

  // Flip the version field (bytes 8..11, just after the 8-byte magic).
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(8);
    const uint32_t bad_version = 999;
    file.write(reinterpret_cast<const char*>(&bad_version), sizeof(bad_version));
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());

  // Restore, then corrupt a count field instead (num_tasks at offset 16).
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(16);
    const int64_t bad_tasks = -1;
    file.write(reinterpret_cast<const char*>(&bad_tasks), sizeof(bad_tasks));
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, TruncatedBinarySlabReturnsNullopt) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("truncated.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const auto full_size = std::filesystem::file_size(path);
  ASSERT_GT(full_size, 256u);
  std::filesystem::resize_file(path, full_size - 128);
  EXPECT_FALSE(LoadCellTrace(path).has_value());

  // Even a single missing byte in the arena slab must be rejected.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  std::filesystem::resize_file(path, full_size - 1);
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, TrailingGarbageInBinaryReturnsNullopt) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("trailing.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "extra";
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, CorruptedBinaryArenaIndexReturnsNullopt) {
  const CellTrace original = SmallCell(3);
  ASSERT_GT(original.num_tasks(), 0);
  const std::string path = TempPath("corrupt_arena.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  // Scribble an out-of-range machine index into the arena payload's
  // machine_of column. The validator must reject it rather than trust the
  // payload.
  {
    const trace_internal::ArenaLayout layout = trace_internal::ComputeArenaLayout(
        original.num_tasks(), original.num_machines(), original.usage_sample_count(),
        original.peak_sample_count(), original.num_tasks(), original.has_rich());
    const uint64_t header_and_name =
        std::filesystem::file_size(path) - original.arena_bytes().size();
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(header_and_name + layout.machine_of));
    const int32_t bad_machine = 1 << 20;
    file.write(reinterpret_cast<const char*>(&bad_machine), sizeof(bad_machine));
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, TruncatedTextRecordReturnsNullopt) {
  const std::string path = TempPath("truncated.trace");
  {
    std::ofstream out(path);
    out << "# crf-trace v1\n";
    out << "cell,x,10,1,0\n";
    out << "task,1,1\n";  // Too few fields.
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, OutOfRangeMachineReturnsNullopt) {
  const std::string path = TempPath("bad_machine.trace");
  {
    std::ofstream out(path);
    out << "# crf-trace v1\n";
    out << "cell,x,10,1,0\n";
    out << "task,1,1,5,0,0.5,2,0.1\n";  // machine 5 of 1.
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingHeaderReturnsNullopt) {
  const std::string path = TempPath("no_header.trace");
  {
    std::ofstream out(path);
    out << "# crf-trace v1\n";
    out << "task,1,1,0,0,0.5,2,0.1\n";  // Task before the cell record.
  }
  EXPECT_FALSE(LoadCellTrace(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyUsageSeriesAllowed) {
  const std::string path = TempPath("empty_usage.trace");
  {
    std::ofstream out(path);
    out << "# crf-trace v1\n";
    out << "cell,x,10,1,0\n";
    out << "machine,0,1,\n";
    out << "task,1,1,0,0,0.5,2,\n";
  }
  const auto loaded = LoadCellTrace(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_tasks(), 1);
  EXPECT_TRUE(loaded->task(0).usage().empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crf
