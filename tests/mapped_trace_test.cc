// Tests for the zero-copy mmap trace loader (TraceLoadMode::kMapped).
//
// Two properties matter: a mapped trace must be bit-identical to the same
// file loaded onto the heap (the map is a view of the exact bytes the heap
// loader copies), and corruption must be rejected with a precise diagnostic
// before any span can point out of bounds — a mapped arena cannot rely on
// "the read stopped short", so every rejection here goes through header or
// arena validation.

#include "crf/trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "crf/trace/generator.h"
#include "crf/trace/trace.h"
#include "crf/trace/trace_builder.h"

namespace crf {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("crf_mapped_" + name)).string();
}

CellTrace SmallCell(uint64_t seed, bool rich = false) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 6;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.rich_stats = rich;
  return GenerateCellTrace(profile, options, Rng(seed));
}

std::optional<CellTrace> LoadMapped(const std::string& path, std::string* error = nullptr) {
  return LoadCellTrace(path, {TraceLoadMode::kMapped}, error);
}

// Overwrites `size` bytes at `offset` in the file (the mapping is read-only,
// so corruption tests scribble on disk before loading).
void CorruptAt(const std::string& path, uint64_t offset, const void* data, size_t size) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

// Byte offset of the arena blob inside the file (header + padded name).
uint64_t ArenaFileOffset(const CellTrace& cell, const std::string& path) {
  return std::filesystem::file_size(path) - cell.arena_bytes().size();
}

trace_internal::ArenaLayout LayoutOf(const CellTrace& cell) {
  return trace_internal::ComputeArenaLayout(cell.num_tasks(), cell.num_machines(),
                                            cell.usage_sample_count(), cell.peak_sample_count(),
                                            cell.num_tasks(), cell.has_rich());
}

void ExpectBitIdentical(const CellTrace& heap, const CellTrace& mapped) {
  EXPECT_FALSE(heap.is_mapped());
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(heap.name, mapped.name);
  EXPECT_EQ(heap.num_intervals, mapped.num_intervals);
  EXPECT_EQ(heap.dropped_tasks, mapped.dropped_tasks);
  const auto a = heap.arena_bytes();
  const auto b = mapped.arena_bytes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), b.size()), 0);
}

TEST(MappedTraceTest, BitIdenticalToHeapLoad) {
  for (const bool rich : {false, true}) {
    const CellTrace original = SmallCell(11, rich);
    const std::string path = TempPath(rich ? "diff_rich.crftrace" : "diff.crftrace");
    ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));

    std::string error;
    const auto heap = LoadCellTrace(path, {TraceLoadMode::kHeap}, &error);
    ASSERT_TRUE(heap.has_value()) << error;
    const auto mapped = LoadMapped(path, &error);
    ASSERT_TRUE(mapped.has_value()) << error;
    ExpectBitIdentical(*heap, *mapped);

    // The views decode those bytes identically too.
    ASSERT_EQ(heap->num_tasks(), mapped->num_tasks());
    for (int32_t i = 0; i < mapped->num_tasks(); ++i) {
      const TaskView ta = heap->task(i);
      const TaskView tb = mapped->task(i);
      EXPECT_EQ(ta.task_id(), tb.task_id());
      EXPECT_EQ(ta.machine_index(), tb.machine_index());
      const auto ua = ta.usage();
      const auto ub = tb.usage();
      ASSERT_EQ(ua.size(), ub.size());
      for (size_t k = 0; k < ub.size(); ++k) {
        EXPECT_EQ(ua[k], ub[k]);  // exact: same bits, no tolerance
      }
    }
    std::remove(path.c_str());
  }
}

TEST(MappedTraceTest, BitIdenticalWithEmptyMachinesAndEmptyTasks) {
  // Hand-built corner shape: a machine with no tasks, a task with no usage
  // samples, and a machine with no ground-truth peaks.
  CellTraceBuilder builder("corner", 4, 3);
  builder.set_machine_capacity(0, 1.0);
  builder.set_machine_capacity(1, 2.0);
  builder.set_machine_capacity(2, 4.0);
  builder.mutable_true_peak(0) = {0.5f, 0.5f, 0.25f, 0.0f};
  const int32_t t0 = builder.AddTask(100, 7, 0, 0, 0.5, SchedulingClass::kBestEffort);
  builder.AppendUsage(t0, 0.25f);
  builder.AppendUsage(t0, 0.125f);
  builder.AddTask(101, 7, 2, 1, 0.25,
                  SchedulingClass::kLatencySensitive);  // zero-length usage
  CellTrace original = builder.Seal();

  const std::string path = TempPath("corner.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  std::string error;
  const auto heap = LoadCellTrace(path, {TraceLoadMode::kHeap}, &error);
  ASSERT_TRUE(heap.has_value()) << error;
  const auto mapped = LoadMapped(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  ExpectBitIdentical(*heap, *mapped);
  EXPECT_TRUE(mapped->machine_tasks(1).empty());
  EXPECT_TRUE(mapped->task(1).usage().empty());
  std::remove(path.c_str());
}

TEST(MappedTraceTest, RejectsTextTraceWithDiagnostic) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("text.trace");
  ASSERT_TRUE(ExportCellTraceText(original, path, nullptr));
  std::string error;
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("a text trace: text is export-only"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(MappedTraceTest, RejectsMissingFile) {
  std::string error;
  EXPECT_FALSE(LoadMapped("/nonexistent/path/file.crftrace", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(MappedTraceTest, RejectsTruncatedFiles) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("trunc.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const auto full_size = std::filesystem::file_size(path);

  // Shorter than the fixed header.
  std::filesystem::resize_file(path, 40);
  std::string error;
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("truncated file"), std::string::npos) << error;

  // One byte missing from the arena blob.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  std::filesystem::resize_file(path, full_size - 1);
  error.clear();
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("truncated arena"), std::string::npos) << error;

  // Bytes beyond the arena blob.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "extra";
  }
  error.clear();
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("trailing garbage after the arena blob"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(MappedTraceTest, RejectsBitFlippedHeaderFields) {
  const CellTrace original = SmallCell(3);
  const std::string path = TempPath("header.crftrace");

  // (offset, corrupting bytes, expected diagnostic substring). Offsets
  // follow the 88-byte header layout in trace_format.h.
  struct Case {
    uint64_t offset;
    int64_t value;
    size_t size;
    const char* expect;
  };
  const Case cases[] = {
      // The mapped loader runs the heap load's header validator, which
      // checks the magic first.
      {0, int64_t{'X'}, 1, "bad magic: not a crf binary trace"},
      {8, 999, 4, "unsupported binary trace version"},
      {12, 0xFF, 4, "unknown header flags"},
      {16, -1, 8, "header field num_tasks out of range"},
      {24, int64_t{1} << 50, 8, "header field num_machines out of range"},
      {48, original.num_tasks() + 1, 8, "csr_entries"},
      {80, 64, 8, "arena byte count mismatch"},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
    CorruptAt(path, c.offset, &c.value, c.size);
    std::string error;
    EXPECT_FALSE(LoadMapped(path, &error).has_value()) << c.expect;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "offset " << c.offset << ": got \"" << error << "\"";
  }
  std::remove(path.c_str());
}

TEST(MappedTraceTest, RejectsMisalignedOffsetTables) {
  const CellTrace original = SmallCell(3);
  ASSERT_GE(original.num_tasks(), 3);
  const std::string path = TempPath("offsets.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const uint64_t arena = ArenaFileOffset(original, path);
  const trace_internal::ArenaLayout layout = LayoutOf(original);

  // usage_off[0] must be 0.
  const uint64_t bad_first = 1;
  CorruptAt(path, arena + layout.usage_off, &bad_first, sizeof(bad_first));
  std::string error;
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("offset table corrupt: entry 0"), std::string::npos) << error;

  // usage_off[N] must equal the total sample count.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const uint64_t bad_final = static_cast<uint64_t>(original.usage_sample_count()) + 7;
  CorruptAt(path, arena + layout.usage_off + 8 * static_cast<uint64_t>(original.num_tasks()),
            &bad_final, sizeof(bad_final));
  error.clear();
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("offset table corrupt: final entry"), std::string::npos) << error;

  // Interior entries must be monotone (a slab boundary pointing backwards
  // would hand task i+1 a negative-length span).
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const uint64_t bad_mid = static_cast<uint64_t>(original.usage_sample_count()) + (1u << 20);
  CorruptAt(path, arena + layout.usage_off + 8, &bad_mid, sizeof(bad_mid));
  error.clear();
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("offset table not monotone"), std::string::npos) << error;

  // The per-machine peak offset table is validated the same way.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  CorruptAt(path, arena + layout.peak_off, &bad_first, sizeof(bad_first));
  error.clear();
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("offset table corrupt: entry 0"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(MappedTraceTest, RejectsCorruptArenaIndices) {
  const CellTrace original = SmallCell(3);
  ASSERT_GE(original.num_tasks(), 2);
  const std::string path = TempPath("indices.crftrace");
  const trace_internal::ArenaLayout layout = LayoutOf(original);

  // Out-of-range machine index.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  uint64_t arena = ArenaFileOffset(original, path);
  const int32_t bad_machine = 1 << 20;
  CorruptAt(path, arena + layout.machine_of, &bad_machine, sizeof(bad_machine));
  std::string error;
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("machine index"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  // Out-of-range scheduling class.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  const uint8_t bad_class = 200;
  CorruptAt(path, arena + layout.sched_class, &bad_class, sizeof(bad_class));
  error.clear();
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("scheduling class"), std::string::npos) << error;

  // CSR task list must be a permutation: duplicate an entry.
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  int32_t first_task = 0;
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(arena + layout.csr_tasks));
    in.read(reinterpret_cast<char*>(&first_task), sizeof(first_task));
  }
  CorruptAt(path, arena + layout.csr_tasks + sizeof(int32_t), &first_task, sizeof(first_task));
  error.clear();
  EXPECT_FALSE(LoadMapped(path, &error).has_value());
  EXPECT_NE(error.find("repeats task"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(MappedTraceTest, ResidencyAndPageHints) {
  const CellTrace original = SmallCell(7);
  const std::string path = TempPath("hints.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(original, path, nullptr));
  std::string error;
  const auto heap = LoadCellTrace(path, {TraceLoadMode::kHeap}, &error);
  ASSERT_TRUE(heap.has_value()) << error;
  const auto mapped = LoadMapped(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;

  // Heap arenas are fully resident by definition; a mapping can never report
  // more resident bytes than its size.
  EXPECT_EQ(heap->ResidentArenaBytes(),
            static_cast<int64_t>(heap->arena_bytes().size()));
  EXPECT_GE(mapped->ResidentArenaBytes(), 0);
  EXPECT_LE(mapped->ResidentArenaBytes(),
            static_cast<int64_t>(mapped->arena_bytes().size()));

  // The residency hints never change observable content, mapped or not, and
  // dropped pages must refault transparently.
  for (int m = 0; m < mapped->num_machines(); ++m) {
    mapped->PrefetchMachinePages(m);
    mapped->DropMachinePages(m);
    heap->PrefetchMachinePages(m);  // no-op on heap arenas
    heap->DropMachinePages(m);
  }
  for (int32_t i = 0; i < mapped->num_tasks(); ++i) {
    const auto ua = heap->task(i).usage();
    const auto ub = mapped->task(i).usage();
    ASSERT_EQ(ua.size(), ub.size());
    for (size_t k = 0; k < ub.size(); ++k) {
      EXPECT_EQ(ua[k], ub[k]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crf
