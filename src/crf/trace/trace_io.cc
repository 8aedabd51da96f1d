#include "crf/trace/trace_io.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

#include "crf/trace/trace_builder.h"
#include "crf/trace/trace_format.h"
#include "crf/util/atomic_file.h"
#include "crf/util/check.h"
#include "crf/util/csv.h"

namespace crf {
namespace {

using trace_internal::BinaryHeader;
using trace_internal::kBinaryMagic;
using trace_internal::kBinaryVersion;
using trace_internal::kFlagRich;
using trace_internal::kHeaderAlignment;
using trace_internal::PaddedNameLength;

constexpr std::string_view kTextMagic = "# crf-trace v1";

// 9 significant digits round-trip any binary32 value exactly, so text and
// binary saves of the same trace reload to identical bits.
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

bool ParseDouble(std::string_view field, double& out) {
  const auto result = std::from_chars(field.data(), field.data() + field.size(), out);
  return result.ec == std::errc();
}

bool ParseInt(std::string_view field, int64_t& out) {
  const auto result = std::from_chars(field.data(), field.data() + field.size(), out);
  return result.ec == std::errc();
}

bool ParseSeries(std::string_view field, std::vector<float>& out) {
  out.clear();
  if (field.empty()) {
    return true;
  }
  size_t start = 0;
  while (true) {
    const size_t semi = field.find(';', start);
    const std::string_view piece =
        semi == std::string_view::npos ? field.substr(start) : field.substr(start, semi - start);
    double value = 0.0;
    if (!ParseDouble(piece, value)) {
      return false;
    }
    out.push_back(static_cast<float>(value));
    if (semi == std::string_view::npos) {
      break;
    }
    start = semi + 1;
  }
  return true;
}

std::optional<CellTrace> LoadCellTraceText(std::ifstream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kTextMagic) {
    return std::nullopt;
  }

  CellTraceBuilder builder;
  std::vector<float> series;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const auto fields = SplitCsvLine(line);
    if (fields[0] == "cell") {
      if (fields.size() != 5) {
        return std::nullopt;
      }
      int64_t intervals = 0;
      int64_t machines = 0;
      int64_t dropped = 0;
      if (!ParseInt(fields[2], intervals) || !ParseInt(fields[3], machines) ||
          !ParseInt(fields[4], dropped) || intervals < 0 || machines < 0) {
        return std::nullopt;
      }
      builder.Reset(std::string(fields[1]), static_cast<Interval>(intervals),
                    static_cast<int>(machines));
      builder.set_dropped_tasks(dropped);
      saw_header = true;
    } else if (fields[0] == "machine") {
      if (!saw_header || fields.size() != 4) {
        return std::nullopt;
      }
      int64_t index = 0;
      double capacity = 0.0;
      if (!ParseInt(fields[1], index) || !ParseDouble(fields[2], capacity) || index < 0 ||
          index >= builder.num_machines()) {
        return std::nullopt;
      }
      builder.set_machine_capacity(static_cast<int>(index), capacity);
      if (!ParseSeries(fields[3], series)) {
        return std::nullopt;
      }
      builder.mutable_true_peak(static_cast<int>(index)) = series;
    } else if (fields[0] == "task") {
      if (!saw_header || fields.size() != 8) {
        return std::nullopt;
      }
      int64_t task_id = 0;
      int64_t job_id = 0;
      int64_t machine = 0;
      int64_t start = 0;
      double limit = 0.0;
      int64_t sched_class = 0;
      if (!ParseInt(fields[1], task_id) || !ParseInt(fields[2], job_id) ||
          !ParseInt(fields[3], machine) || !ParseInt(fields[4], start) ||
          !ParseDouble(fields[5], limit) || !ParseInt(fields[6], sched_class) || machine < 0 ||
          machine >= builder.num_machines() || sched_class < 0 || sched_class > 3) {
        return std::nullopt;
      }
      if (!ParseSeries(fields[7], series)) {
        return std::nullopt;
      }
      const int32_t task = builder.AddTask(task_id, job_id, static_cast<int32_t>(machine),
                                           static_cast<Interval>(start), limit,
                                           static_cast<SchedulingClass>(sched_class));
      builder.ReserveUsage(task, series.size());
      for (const float u : series) {
        builder.AppendUsage(task, u);
      }
    } else {
      return std::nullopt;
    }
  }
  if (!saw_header) {
    return std::nullopt;
  }
  return builder.Seal();
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
  if (std::fread(&header, sizeof(header), 1, file) != 1) {
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
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return false;
  }
  const bool header_ok = ReadHeaderAndName(file, header, layout, name, error);
  const uint64_t file_size =
      header_ok && std::fseek(file, 0, SEEK_END) == 0 ? static_cast<uint64_t>(std::ftell(file)) : 0;
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

bool SaveCellTrace(const CellTrace& cell, const std::string& path, std::string* error) {
  std::ofstream out(path);
  if (!out.is_open()) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return false;
  }
  out << kTextMagic << '\n';
  out << "cell," << cell.name << ',' << cell.num_intervals << ',' << cell.num_machines() << ','
      << cell.dropped_tasks << '\n';
  std::string line;
  for (int m = 0; m < cell.num_machines(); ++m) {
    line = "machine,";
    line += std::to_string(m);
    line += ',';
    line += FormatExactDouble(cell.machine_capacity(m));
    line += ',';
    AppendSeries(line, cell.true_peak(m));
    out << line << '\n';
  }
  for (int32_t i = 0; i < cell.num_tasks(); ++i) {
    const TaskView task = cell.task(i);
    line = "task,";
    line += std::to_string(task.task_id());
    line += ',';
    line += std::to_string(task.job_id());
    line += ',';
    line += std::to_string(task.machine_index());
    line += ',';
    line += std::to_string(task.start());
    line += ',';
    line += FormatExactDouble(task.limit());
    line += ',';
    line += std::to_string(static_cast<int>(task.sched_class()));
    line += ',';
    AppendSeries(line, task.usage());
    out << line << '\n';
  }
  out.close();
  if (!out) {
    SetError(error, "write failure on " + path);
    return false;
  }
  return true;
}

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

std::optional<CellTrace> LoadCellTrace(const std::string& path) {
  return LoadCellTrace(path, TraceLoadOptions{}, nullptr);
}

bool CheckCellTraceHeader(const std::string& path, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return false;
  }
  char head[kTextMagic.size() + 1] = {};
  const size_t got = std::fread(head, 1, sizeof(head), file);
  std::fclose(file);
  if (got >= sizeof(kBinaryMagic) && std::memcmp(head, kBinaryMagic, sizeof(kBinaryMagic)) == 0) {
    BinaryHeader header;
    trace_internal::ArenaLayout layout;
    std::string name;
    return ReadBinaryHeader(path, header, layout, name, error);
  }
  const std::string_view line(head, got);
  if (line == kTextMagic || line == std::string(kTextMagic) + "\n") {
    return true;
  }
  SetError(error, path + " is not a crf trace (bad magic)");
  return false;
}

std::optional<CellTrace> LoadCellTrace(const std::string& path, const TraceLoadOptions& options,
                                       std::string* error) {
  // Sniff the leading magic to pick a format.
  bool is_binary = false;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      SetError(error, "cannot open " + path);
      return std::nullopt;
    }
    char magic[8] = {};
    const size_t got = std::fread(magic, 1, sizeof(magic), file);
    is_binary =
        got == sizeof(magic) && std::memcmp(magic, kBinaryMagic, sizeof(kBinaryMagic)) == 0;
    if (is_binary && options.mode != TraceLoadMode::kMapped) {
      std::rewind(file);
      auto cell = LoadCellTraceBinary(file, error);
      std::fclose(file);
      return cell;
    }
    std::fclose(file);
  }
  if (options.mode == TraceLoadMode::kMapped) {
    if (!is_binary) {
      SetError(error, path + " is not a binary trace; mmap loading requires the binary format");
      return std::nullopt;
    }
    return LoadCellTraceBinaryMapped(path, error);
  }
  if (options.mode == TraceLoadMode::kHeap && !is_binary) {
    // Fall through to the text parser only in auto mode.
    SetError(error, path + " is not a binary trace");
    return std::nullopt;
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  auto cell = LoadCellTraceText(in);
  if (!cell.has_value()) {
    SetError(error, path + " is not a well-formed text trace");
  }
  return cell;
}

}  // namespace crf
