#include "crf/trace/stream_writer.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "crf/trace/trace_format.h"
#include "crf/util/atomic_file.h"
#include "crf/util/check.h"

namespace crf {
namespace {

uint64_t PageSize() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
}

}  // namespace

StreamingTraceWriter::StreamingTraceWriter(const TraceColumns& spec, const std::string& path,
                                           std::string* error)
    : path_(path), temp_path_(AtomicTempPath(path)), rows_(spec) {
  CRF_CHECK(rows_.machine_major()) << "streaming seal requires machine-major task order";
  const uint64_t arena_offset = sizeof(trace_internal::BinaryHeader) +
                                trace_internal::PaddedNameLength(spec.name.size());
  file_bytes_ = arena_offset + rows_.layout().total_bytes;

  // The trace is built in a temporary sibling and renamed over `path` only
  // by Finish, so `path` never holds a partial trace.
  fd_ = ::open(temp_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    SetError(error, "cannot create " + temp_path_ + ": " + std::strerror(errno));
    return;
  }
  if (::ftruncate(fd_, static_cast<off_t>(file_bytes_)) != 0) {
    SetError(error, "cannot size " + temp_path_ + " to " + std::to_string(file_bytes_) +
                        " bytes: " + std::strerror(errno));
    return;
  }
  void* base = ::mmap(nullptr, file_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (base == MAP_FAILED) {
    SetError(error, "mmap of " + temp_path_ + " failed: " + std::strerror(errno));
    return;
  }
  map_ = static_cast<std::byte*>(base);
  arena_ = map_ + arena_offset;

  // Header + name. ftruncate zero-fills, so the name padding is already 0.
  trace_internal::BinaryHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, trace_internal::kBinaryMagic, sizeof(trace_internal::kBinaryMagic));
  header.version = trace_internal::kBinaryVersion;
  header.flags = spec.rich ? trace_internal::kFlagRich : 0;
  header.num_tasks = rows_.num_rows();
  header.num_machines = static_cast<int64_t>(spec.capacity.size());
  header.usage_samples = rows_.usage_samples();
  header.peak_samples = rows_.peak_samples();
  header.csr_entries = rows_.num_rows();
  header.num_intervals = spec.num_intervals;
  header.dropped_tasks = spec.dropped_tasks;
  header.name_length = spec.name.size();
  header.arena_bytes = rows_.layout().total_bytes;
  std::memcpy(map_, &header, sizeof(header));
  if (!spec.name.empty()) {
    std::memcpy(map_ + sizeof(header), spec.name.data(), spec.name.size());
  }
  rows_.WriteColumns(arena_);
}

StreamingTraceWriter::~StreamingTraceWriter() {
  Unmap();
  if (fd_ >= 0) {
    ::close(fd_);
  }
  // Not finished (or never opened): no half-built trace outlives the writer.
  if (!temp_path_.empty()) {
    ::unlink(temp_path_.c_str());
  }
}

void StreamingTraceWriter::Unmap() {
  if (map_ != nullptr) {
    ::munmap(map_, file_bytes_);
    map_ = nullptr;
    arena_ = nullptr;
  }
}

void StreamingTraceWriter::FlushAndDropArenaRange(uint64_t arena_begin, uint64_t arena_end) {
  if (arena_begin >= arena_end) {
    return;
  }
  const uint64_t page = PageSize();
  const uintptr_t base = reinterpret_cast<uintptr_t>(arena_);
  // msync rounds outward (it only schedules writeback; neighbors are safe).
  const uintptr_t sync_begin = (base + arena_begin) & ~(page - 1);
  const uintptr_t sync_end = base + arena_end;
  ::msync(reinterpret_cast<void*>(sync_begin), sync_end - sync_begin, MS_ASYNC);
  // madvise rounds inward: a page shared with the next, still-unwritten
  // block must stay mapped. Dropped pages are clean-or-queued file pages —
  // the data survives in the page cache and refaults on demand.
  const uintptr_t drop_begin = (base + arena_begin + page - 1) & ~(page - 1);
  const uintptr_t drop_end = (base + arena_end) & ~(page - 1);
  if (drop_begin < drop_end) {
    ::madvise(reinterpret_cast<void*>(drop_begin), drop_end - drop_begin, MADV_DONTNEED);
  }
}

void StreamingTraceWriter::RetireMachines(int begin_machine, int end_machine) {
  if (begin_machine >= end_machine || map_ == nullptr) {
    return;
  }
  const trace_internal::ArenaLayout& layout = rows_.layout();
  const uint64_t sample_begin = rows_.usage_offset(rows_.machine_row_offset(begin_machine));
  const uint64_t sample_end = rows_.usage_offset(rows_.machine_row_offset(end_machine));
  FlushAndDropArenaRange(layout.usage + sample_begin * sizeof(float),
                         layout.usage + sample_end * sizeof(float));
  for (int c = 0; rows_.rich() && c < kNumRichColumns; ++c) {
    const uint64_t column = static_cast<uint64_t>(c) * rows_.usage_samples();
    FlushAndDropArenaRange(layout.rich + (column + sample_begin) * sizeof(float),
                           layout.rich + (column + sample_end) * sizeof(float));
  }
  FlushAndDropArenaRange(layout.true_peak + rows_.peak_offset(begin_machine) * sizeof(float),
                         layout.true_peak + rows_.peak_offset(end_machine) * sizeof(float));
}

bool StreamingTraceWriter::Finish(std::string* error) {
  if (map_ == nullptr) {
    SetError(error, "writer is not open");
    return false;
  }
  // Every page reaches the disk before the rename publishes the file.
  const bool synced = ::msync(map_, file_bytes_, MS_SYNC) == 0;
  if (!synced) {
    SetError(error, "msync of " + temp_path_ + " failed: " + std::strerror(errno));
  }
  Unmap();
  if (!synced) {
    return false;  // the destructor removes the temporary file
  }
  return CommitAtomicFile(std::exchange(fd_, -1), std::exchange(temp_path_, {}), path_, error);
}

}  // namespace crf
