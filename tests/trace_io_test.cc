#include "crf/trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

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

// Exact structural equality through the public view API.
void ExpectTracesEqual(const CellTrace& a, const CellTrace& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_intervals, b.num_intervals);
  EXPECT_EQ(a.dropped_tasks, b.dropped_tasks);
  EXPECT_EQ(a.has_rich(), b.has_rich());
  ASSERT_EQ(a.num_machines(), b.num_machines());
  for (int m = 0; m < b.num_machines(); ++m) {
    EXPECT_EQ(a.machine_capacity(m), b.machine_capacity(m));
    const std::span<const float> peak_a = a.true_peak(m);
    const std::span<const float> peak_b = b.true_peak(m);
    ASSERT_EQ(peak_a.size(), peak_b.size());
    for (size_t t = 0; t < peak_b.size(); ++t) {
      EXPECT_EQ(peak_a[t], peak_b[t]);
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
    EXPECT_EQ(ta.limit(), tb.limit());
    const std::span<const float> usage_a = ta.usage();
    const std::span<const float> usage_b = tb.usage();
    ASSERT_EQ(usage_a.size(), usage_b.size());
    for (size_t k = 0; k < usage_b.size(); ++k) {
      EXPECT_EQ(usage_a[k], usage_b[k]);
    }
    if (b.has_rich()) {
      for (int c = 0; c < kNumRichColumns; ++c) {
        const std::span<const float> col_a = ta.rich_column(static_cast<RichColumn>(c));
        const std::span<const float> col_b = tb.rich_column(static_cast<RichColumn>(c));
        ASSERT_EQ(col_a.size(), col_b.size());
        for (size_t k = 0; k < col_b.size(); ++k) {
          EXPECT_EQ(col_a[k], col_b[k]);
        }
      }
    }
  }
}

TEST(TraceIoTest, BinaryRoundTripIsExact) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("roundtrip.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const auto loaded = LoadCellTrace(path);
  ASSERT_TRUE(loaded.has_value());
  ExpectTracesEqual(*loaded, original);

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
  ExpectTracesEqual(*loaded, original);
  std::remove(path.c_str());
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> Split(const std::string& text, char separator) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t at; (at = text.find(separator, start)) != std::string::npos; start = at + 1) {
    pieces.push_back(text.substr(start, at - start));
  }
  pieces.push_back(text.substr(start));
  return pieces;
}

// A `;`-separated %.9g series reads back to exactly `expected`'s floats.
void ExpectSeriesExact(const std::string& field, std::span<const float> expected) {
  if (expected.empty()) {
    EXPECT_EQ(field, "");
    return;
  }
  const std::vector<std::string> values = Split(field, ';');
  ASSERT_EQ(values.size(), expected.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::strtof(values[i].c_str(), nullptr), expected[i]) << values[i];
  }
}

// The text export is read back here, not by crf: every line carries the
// binary trace's exact bits (%.9g floats, %.17g doubles).
TEST(TraceIoTest, TextRoundTripPreservesEverything) {
  const CellTrace original = SmallCell(7);
  const std::string path = TempPath("export.trace");
  ASSERT_TRUE(ExportCellTraceText(original, path, nullptr));
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u + original.num_machines() + original.num_tasks());
  EXPECT_EQ(lines[0], "# crf-trace v1");
  EXPECT_EQ(lines[1], "cell," + original.name + "," + std::to_string(original.num_intervals) +
                          "," + std::to_string(original.num_machines()) + "," +
                          std::to_string(original.dropped_tasks));
  for (int m = 0; m < original.num_machines(); ++m) {
    const std::vector<std::string> fields = Split(lines[2 + m], ',');
    ASSERT_EQ(fields.size(), 4u) << lines[2 + m];
    EXPECT_EQ(fields[0], "machine");
    EXPECT_EQ(fields[1], std::to_string(m));
    EXPECT_EQ(std::strtod(fields[2].c_str(), nullptr), original.machine_capacity(m));
    ExpectSeriesExact(fields[3], original.true_peak(m));
  }
  for (int32_t i = 0; i < original.num_tasks(); ++i) {
    const TaskView task = original.task(i);
    const std::vector<std::string> fields = Split(lines[2 + original.num_machines() + i], ',');
    ASSERT_EQ(fields.size(), 8u);
    EXPECT_EQ(fields[0], "task");
    EXPECT_EQ(fields[1], std::to_string(task.task_id()));
    EXPECT_EQ(fields[2], std::to_string(task.job_id()));
    EXPECT_EQ(fields[3], std::to_string(task.machine_index()));
    EXPECT_EQ(fields[4], std::to_string(task.start()));
    EXPECT_EQ(std::strtod(fields[5].c_str(), nullptr), task.limit());
    EXPECT_EQ(fields[6], std::to_string(static_cast<int>(task.sched_class())));
    ExpectSeriesExact(fields[7], task.usage());
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyUsageSeriesAllowed) {
  CellTraceBuilder builder("x", /*num_intervals=*/10, /*num_machines=*/1);
  builder.set_machine_capacity(0, 1.0);
  builder.AddTask(1, 1, 0, 0, 0.5, SchedulingClass::kLatencySensitive);
  const std::string path = TempPath("empty_usage.trace");
  ASSERT_TRUE(ExportCellTraceText(builder.Seal(), path, nullptr));
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[2], "machine,0,1,");
  EXPECT_EQ(lines[3], "task,1,1,0,0,0.5,2,");
  std::remove(path.c_str());
}

// The export is atomic, so it may replace the very file its trace is mapped
// from: the mapping keeps the old bytes and the new file is whole.
TEST(TraceIoTest, ExportReplacesItsMappedSource) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("in_place.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  std::string error;
  const auto mapped = LoadCellTrace(path, {TraceLoadMode::kMapped}, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  ASSERT_TRUE(ExportCellTraceText(*mapped, path, &error)) << error;
  ExpectTracesEqual(*mapped, original);
  EXPECT_EQ(ReadLines(path).size(), 2u + original.num_machines() + original.num_tasks());
  std::remove(path.c_str());
}

// A cell loaded from its binary trace exports the same text, byte for byte,
// as the cell that wrote it, in both load modes.
TEST(TraceIoTest, BinaryMatchesTextLoad) {
  const CellTrace original = SmallCell(7);
  const std::string binary_path = TempPath("pair.crftrace");
  const std::string original_text = TempPath("pair_original.trace");
  const std::string loaded_text = TempPath("pair_loaded.trace");
  ASSERT_TRUE(SaveCellTraceBinary(original, binary_path, nullptr));
  ASSERT_TRUE(ExportCellTraceText(original, original_text, nullptr));
  const std::vector<std::string> expected = ReadLines(original_text);
  for (const TraceLoadMode mode : {TraceLoadMode::kHeap, TraceLoadMode::kMapped}) {
    std::string error;
    const auto loaded = LoadCellTrace(binary_path, {mode}, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    ASSERT_TRUE(ExportCellTraceText(*loaded, loaded_text, &error)) << error;
    EXPECT_EQ(ReadLines(loaded_text), expected);
  }
  std::remove(binary_path.c_str());
  std::remove(original_text.c_str());
  std::remove(loaded_text.c_str());
}

// crf reads binary traces only: every loader refuses `path` and names it a
// text export.
void ExpectRefusedAsTextExport(const std::string& path) {
  for (const TraceLoadMode mode : {TraceLoadMode::kHeap, TraceLoadMode::kMapped}) {
    std::string error;
    EXPECT_FALSE(LoadCellTrace(path, {mode}, &error).has_value());
    EXPECT_NE(error.find("text is export-only"), std::string::npos) << error;
  }
  std::string error;
  EXPECT_FALSE(CheckCellTraceHeader(path, &error));
  EXPECT_NE(error.find("text is export-only"), std::string::npos) << error;
}

std::string WriteTextFile(const std::string& name, const std::string& contents) {
  const std::string path = TempPath(name);
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(TraceIoTest, TextTraceIsRefusedAsExportOnly) {
  const std::string exported = TempPath("refused.trace");
  ASSERT_TRUE(ExportCellTraceText(SmallCell(3), exported, nullptr));
  ExpectRefusedAsTextExport(exported);
  // Shorter than a binary header.
  const std::string tiny = WriteTextFile("tiny.trace", "# crf-trace v1\ncell,x,10,1,0\n");
  ExpectRefusedAsTextExport(tiny);
  std::remove(exported.c_str());
  std::remove(tiny.c_str());
}

TEST(TraceIoTest, TruncatedTextRecordReturnsNullopt) {
  const std::string path = WriteTextFile("truncated.trace",
                                         "# crf-trace v1\n"
                                         "cell,x,10,1,0\n"
                                         "task,1,1\n");  // Too few fields.
  ExpectRefusedAsTextExport(path);
  std::remove(path.c_str());
}

TEST(TraceIoTest, OutOfRangeMachineReturnsNullopt) {
  const std::string path = WriteTextFile("bad_machine.trace",
                                         "# crf-trace v1\n"
                                         "cell,x,10,1,0\n"
                                         "task,1,1,5,0,0.5,2,0.1\n");  // machine 5 of 1.
  ExpectRefusedAsTextExport(path);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingHeaderReturnsNullopt) {
  const std::string path = WriteTextFile("no_header.trace",
                                         "# crf-trace v1\n"
                                         "task,1,1,0,0,0.5,2,0.1\n");  // Task before the cell record.
  ExpectRefusedAsTextExport(path);
  std::remove(path.c_str());
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
  EXPECT_FALSE(ExportCellTraceText(cell, path, &error));
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

}  // namespace
}  // namespace crf
