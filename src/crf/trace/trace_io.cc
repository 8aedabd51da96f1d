#include "crf/trace/trace_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "crf/trace/trace_builder.h"
#include "crf/trace/trace_format.h"
#include "crf/util/atomic_file.h"
#include "crf/util/check.h"
#include "crf/util/regular_file.h"

namespace crf {
namespace {

using trace_internal::BinaryHeader;
using trace_internal::kBinaryMagic;
using trace_internal::kBinaryVersion;
using trace_internal::kFlagRich;
using trace_internal::kHeaderAlignment;
using trace_internal::PaddedNameLength;

constexpr std::string_view kTextMagic = "# crf-trace v1";

// 9 significant digits round-trip any binary32 value exactly, so the text
// export carries the binary trace's bits.
void AppendSeries(std::string& out, std::span<const float> series) {
  char buffer[32];
  for (size_t i = 0; i < series.size(); ++i) {
    if (i > 0) {
      out += ';';
    }
    std::snprintf(buffer, sizeof(buffer), "%.9g", static_cast<double>(series[i]));
    out += buffer;
  }
}

// Likewise, 17 significant digits round-trip any binary64 value (limits and
// machine capacities are doubles).
std::string FormatExactDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
}

// Validates the header fields and computes the implied arena layout. Every
// rejection names the offending field so corruption tests (and operators)
// see exactly what is wrong.
bool ValidateHeader(const BinaryHeader& header, trace_internal::ArenaLayout& layout,
                    std::string* error) {
  if (std::memcmp(header.magic, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    SetError(error, "bad magic: not a crf binary trace");
    return false;
  }
  if (header.version != kBinaryVersion) {
    SetError(error, "unsupported binary trace version " + std::to_string(header.version) +
                        " (expected " + std::to_string(kBinaryVersion) + ")");
    return false;
  }
  if ((header.flags & ~kFlagRich) != 0) {
    SetError(error, "unknown header flags 0x" + std::to_string(header.flags));
    return false;
  }
  // 2^40 tasks/samples is far beyond any real cell; a larger count is a
  // corrupted header, rejected before the layout arithmetic can overflow.
  constexpr int64_t kImplausible = int64_t{1} << 40;
  const auto count_ok = [&](int64_t value, const char* field) {
    if (value < 0 || value > kImplausible) {
      SetError(error, std::string("header field ") + field + " out of range: " +
                          std::to_string(value));
      return false;
    }
    return true;
  };
  if (!count_ok(header.num_tasks, "num_tasks") ||
      !count_ok(header.num_machines, "num_machines") ||
      !count_ok(header.usage_samples, "usage_samples") ||
      !count_ok(header.peak_samples, "peak_samples") ||
      !count_ok(header.num_intervals, "num_intervals") ||
      !count_ok(header.dropped_tasks, "dropped_tasks")) {
    return false;
  }
  if (header.csr_entries != header.num_tasks) {
    SetError(error, "header csr_entries (" + std::to_string(header.csr_entries) +
                        ") != num_tasks (" + std::to_string(header.num_tasks) + ")");
    return false;
  }
  if (header.name_length > (1u << 20)) {  // names are short; a huge length is corruption
    SetError(error, "implausible cell name length " + std::to_string(header.name_length));
    return false;
  }
  const bool has_rich = (header.flags & kFlagRich) != 0;
  layout = trace_internal::ComputeArenaLayout(header.num_tasks, header.num_machines,
                                              header.usage_samples, header.peak_samples,
                                              header.csr_entries, has_rich);
  if (header.arena_bytes != layout.total_bytes) {
    SetError(error, "arena byte count mismatch: header says " +
                        std::to_string(header.arena_bytes) + ", counts imply " +
                        std::to_string(layout.total_bytes));
    return false;
  }
  return true;
}

// Validates the semantic invariants of a freshly read arena (offset tables
// monotone and consistent with the counts, indices in range) so a corrupted
// file can never produce out-of-bounds spans. On a mapped arena this touches
// only the metadata slabs — the bulk usage/rich samples stay non-resident.
bool ValidateArena(const std::byte* base, const trace_internal::ArenaLayout& layout,
                   const BinaryHeader& header, std::string* error) {
  const auto offsets_ok = [base, error](uint64_t slab, int64_t entries, uint64_t total,
                                        const char* what) {
    const uint64_t* off = reinterpret_cast<const uint64_t*>(base + slab);
    if (off[0] != 0) {
      SetError(error, std::string(what) + " offset table corrupt: entry 0 is " +
                          std::to_string(off[0]) + ", want 0");
      return false;
    }
    if (off[entries] != total) {
      SetError(error, std::string(what) + " offset table corrupt: final entry is " +
                          std::to_string(off[entries]) + ", want " + std::to_string(total));
      return false;
    }
    for (int64_t i = 0; i < entries; ++i) {
      if (off[i] > off[i + 1]) {
        SetError(error, std::string(what) + " offset table not monotone at entry " +
                            std::to_string(i) + " (" + std::to_string(off[i]) + " > " +
                            std::to_string(off[i + 1]) + ")");
        return false;
      }
    }
    return true;
  };
  if (!offsets_ok(layout.usage_off, header.num_tasks,
                  static_cast<uint64_t>(header.usage_samples), "usage") ||
      !offsets_ok(layout.peak_off, header.num_machines,
                  static_cast<uint64_t>(header.peak_samples), "peak") ||
      !offsets_ok(layout.csr_off, header.num_machines,
                  static_cast<uint64_t>(header.csr_entries), "csr")) {
    return false;
  }
  const int32_t* machine_of = reinterpret_cast<const int32_t*>(base + layout.machine_of);
  const uint8_t* sched_class = reinterpret_cast<const uint8_t*>(base + layout.sched_class);
  for (int64_t i = 0; i < header.num_tasks; ++i) {
    if (machine_of[i] < 0 || machine_of[i] >= header.num_machines) {
      SetError(error, "task " + std::to_string(i) + " machine index " +
                          std::to_string(machine_of[i]) + " out of range [0, " +
                          std::to_string(header.num_machines) + ")");
      return false;
    }
    if (sched_class[i] > 3) {
      SetError(error, "task " + std::to_string(i) + " scheduling class " +
                          std::to_string(sched_class[i]) + " out of range");
      return false;
    }
  }
  // Every task must appear in exactly one CSR row.
  const int32_t* csr_tasks = reinterpret_cast<const int32_t*>(base + layout.csr_tasks);
  std::vector<uint8_t> seen(header.num_tasks, 0);
  for (int64_t i = 0; i < header.csr_entries; ++i) {
    if (csr_tasks[i] < 0 || csr_tasks[i] >= header.num_tasks) {
      SetError(error, "csr entry " + std::to_string(i) + " task index " +
                          std::to_string(csr_tasks[i]) + " out of range");
      return false;
    }
    if (seen[csr_tasks[i]] != 0) {
      SetError(error, "csr entry " + std::to_string(i) + " repeats task " +
                          std::to_string(csr_tasks[i]));
      return false;
    }
    seen[csr_tasks[i]] = 1;
  }
  return true;
}

// Reads header + name + padding from `file`, leaving the read position at
// the start of the arena blob.
bool ReadHeaderAndName(std::FILE* file, BinaryHeader& header,
                       trace_internal::ArenaLayout& layout, std::string& name,
                       std::string* error) {
  const size_t got = std::fread(&header, 1, sizeof(header), file);
  if (std::string_view(reinterpret_cast<const char*>(&header), got).starts_with(kTextMagic)) {
    SetError(error, "a text trace: text is export-only, crf reads binary (CRFTRBIN) traces");
    return false;
  }
  if (got != sizeof(header)) {
    SetError(error, "truncated file: shorter than the " + std::to_string(sizeof(header)) +
                        "-byte header");
    return false;
  }
  if (!ValidateHeader(header, layout, error)) {
    return false;
  }
  name.assign(header.name_length, '\0');
  if (header.name_length > 0 &&
      std::fread(name.data(), 1, header.name_length, file) != header.name_length) {
    SetError(error, "truncated file: cell name cut short");
    return false;
  }
  const uint64_t padding = PaddedNameLength(header.name_length) - header.name_length;
  if (std::fseek(file, static_cast<long>(padding), SEEK_CUR) != 0) {
    SetError(error, "truncated file: missing name padding");
    return false;
  }
  return true;
}

std::optional<CellTrace> LoadCellTraceBinary(std::FILE* file, std::string* error) {
  BinaryHeader header;
  trace_internal::ArenaLayout layout;
  std::string name;
  if (!ReadHeaderAndName(file, header, layout, name, error)) {
    return std::nullopt;
  }
  const bool has_rich = (header.flags & kFlagRich) != 0;
  auto arena = std::make_shared<trace_internal::TraceArena>(layout.total_bytes);
  if (layout.total_bytes > 0) {
    const size_t got = std::fread(arena->bytes, 1, layout.total_bytes, file);
    if (got != layout.total_bytes) {
      SetError(error, "truncated arena: need " + std::to_string(layout.total_bytes) +
                          " bytes, file has " + std::to_string(got));
      return std::nullopt;
    }
  }
  if (std::fgetc(file) != EOF) {
    SetError(error, "trailing garbage after the arena blob");
    return std::nullopt;
  }
  if (!ValidateArena(arena->bytes, layout, header, error)) {
    return std::nullopt;
  }
  return trace_internal::AttachTrace(std::move(name), static_cast<Interval>(header.num_intervals),
                                     header.dropped_tasks, std::move(arena), header.num_tasks,
                                     header.num_machines, header.usage_samples,
                                     header.peak_samples, header.csr_entries, has_rich);
}

// Validates the binary header and name of the file at `path` and that the
// file holds exactly the arena they imply: the header-only check shared by
// the mapped load and CheckCellTraceHeader.
bool ReadBinaryHeader(const std::string& path, BinaryHeader& header,
                      trace_internal::ArenaLayout& layout, std::string& name, std::string* error) {
  uint64_t file_size = 0;
  std::FILE* file = OpenRegularFile(path, &file_size, error);
  if (file == nullptr) {
    return false;
  }
  const bool header_ok = ReadHeaderAndName(file, header, layout, name, error);
  std::fclose(file);
  if (!header_ok) {
    return false;
  }
  const uint64_t expected =
      sizeof(BinaryHeader) + PaddedNameLength(header.name_length) + layout.total_bytes;
  if (file_size < expected) {
    SetError(error, "truncated arena: file is " + std::to_string(file_size) +
                        " bytes, header + arena need " + std::to_string(expected));
    return false;
  }
  if (file_size > expected) {
    SetError(error, "trailing garbage after the arena blob (" +
                        std::to_string(file_size - expected) + " extra bytes)");
    return false;
  }
  return true;
}

// Zero-copy load: parse + validate the header from a short read, then map
// the whole file and run the arena validator directly on the mapping.
std::optional<CellTrace> LoadCellTraceBinaryMapped(const std::string& path, std::string* error) {
  BinaryHeader header;
  trace_internal::ArenaLayout layout;
  std::string name;
  if (!ReadBinaryHeader(path, header, layout, name, error)) {
    return std::nullopt;
  }
  const uint64_t arena_offset = sizeof(BinaryHeader) + PaddedNameLength(header.name_length);
  std::shared_ptr<const trace_internal::TraceArena> arena =
      trace_internal::TraceArena::MapFromFile(path, arena_offset, layout.total_bytes, error);
  if (arena == nullptr) {
    return std::nullopt;
  }
  if (!ValidateArena(arena->bytes, layout, header, error)) {
    return std::nullopt;
  }
  const bool has_rich = (header.flags & kFlagRich) != 0;
  return trace_internal::AttachTrace(std::move(name), static_cast<Interval>(header.num_intervals),
                                     header.dropped_tasks, std::move(arena), header.num_tasks,
                                     header.num_machines, header.usage_samples,
                                     header.peak_samples, header.csr_entries, has_rich);
}

}  // namespace

bool SaveCellTraceBinary(const CellTrace& cell, const std::string& path, std::string* error) {
  // A default-constructed (never sealed) trace has no arena; seal an empty
  // one so the writer has a blob to emit.
  if (cell.arena_bytes().empty()) {
    CRF_CHECK_EQ(cell.num_tasks(), 0);
    CellTraceBuilder builder(cell.name, cell.num_intervals, 0);
    builder.set_dropped_tasks(cell.dropped_tasks);
    return SaveCellTraceBinary(builder.Seal(), path, error);
  }

  BinaryHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kBinaryMagic, sizeof(kBinaryMagic));
  header.version = kBinaryVersion;
  header.flags = cell.has_rich() ? kFlagRich : 0;
  header.num_tasks = cell.num_tasks();
  header.num_machines = cell.num_machines();
  header.usage_samples = cell.usage_sample_count();
  header.peak_samples = cell.peak_sample_count();
  header.csr_entries = cell.num_tasks();
  header.num_intervals = cell.num_intervals;
  header.dropped_tasks = cell.dropped_tasks;
  header.name_length = cell.name.size();
  header.arena_bytes = cell.arena_bytes().size();

  const uint64_t padding = PaddedNameLength(header.name_length) - header.name_length;
  static constexpr uint8_t kZeros[kHeaderAlignment] = {};
  return WriteFileAtomic(
      path,
      {std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&header), sizeof(header)),
       std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(cell.name.data()),
                                cell.name.size()),
       std::span<const uint8_t>(kZeros, padding),
       std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(cell.arena_bytes().data()),
                                cell.arena_bytes().size())},
      error);
}

bool ExportCellTraceText(const CellTrace& cell, const std::string& path, std::string* error) {
  const std::string temp = AtomicTempPath(path);
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    SetError(error, "cannot create " + temp + ": " + std::strerror(errno));
    return false;
  }
  // Lines collect in `text`, which goes to the file whenever it reaches
  // kChunkBytes, so the export never holds the whole text in memory.
  constexpr size_t kChunkBytes = size_t{1} << 20;
  std::string text;
  bool ok = true;
  const auto flush = [&](size_t at_least) {
    if (ok && text.size() >= at_least) {
      ok = WriteAll(fd, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                                 text.size()));
      text.clear();
    }
  };
  text += kTextMagic;
  text += "\ncell," + cell.name + ',' + std::to_string(cell.num_intervals) + ',' +
          std::to_string(cell.num_machines()) + ',' + std::to_string(cell.dropped_tasks) + '\n';
  for (int m = 0; ok && m < cell.num_machines(); ++m) {
    text += "machine,";
    text += std::to_string(m);
    text += ',';
    text += FormatExactDouble(cell.machine_capacity(m));
    text += ',';
    AppendSeries(text, cell.true_peak(m));
    text += '\n';
    flush(kChunkBytes);
  }
  for (int32_t i = 0; ok && i < cell.num_tasks(); ++i) {
    const TaskView task = cell.task(i);
    text += "task,";
    text += std::to_string(task.task_id());
    text += ',';
    text += std::to_string(task.job_id());
    text += ',';
    text += std::to_string(task.machine_index());
    text += ',';
    text += std::to_string(task.start());
    text += ',';
    text += FormatExactDouble(task.limit());
    text += ',';
    text += std::to_string(static_cast<int>(task.sched_class()));
    text += ',';
    AppendSeries(text, task.usage());
    text += '\n';
    flush(kChunkBytes);
  }
  flush(0);
  if (!ok) {
    SetError(error, "cannot write " + temp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(temp.c_str());
    return false;
  }
  return CommitAtomicFile(fd, temp, path, error);
}

std::optional<CellTrace> LoadCellTrace(const std::string& path) {
  return LoadCellTrace(path, TraceLoadOptions{}, nullptr);
}

bool CheckCellTraceHeader(const std::string& path, std::string* error) {
  BinaryHeader header;
  trace_internal::ArenaLayout layout;
  std::string name;
  return ReadBinaryHeader(path, header, layout, name, error);
}

std::optional<CellTrace> LoadCellTrace(const std::string& path, const TraceLoadOptions& options,
                                       std::string* error) {
  if (options.mode == TraceLoadMode::kMapped) {
    return LoadCellTraceBinaryMapped(path, error);
  }
  uint64_t file_size = 0;
  std::FILE* file = OpenRegularFile(path, &file_size, error);
  if (file == nullptr) {
    return std::nullopt;
  }
  auto cell = LoadCellTraceBinary(file, error);
  std::fclose(file);
  return cell;
}

}  // namespace crf
