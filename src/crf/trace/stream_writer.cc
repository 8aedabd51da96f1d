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

template <typename T>
T* Slab(std::byte* arena, uint64_t offset) {
  return reinterpret_cast<T*>(arena + offset);
}

}  // namespace

StreamingTraceWriter::StreamingTraceWriter(const StreamTraceSpec& spec, const std::string& path,
                                           std::string* error)
    : path_(path), temp_path_(AtomicTempPath(path)) {
  const int64_t n = static_cast<int64_t>(spec.task_id.size());
  const int64_t m = static_cast<int64_t>(spec.capacity.size());
  CRF_CHECK_EQ(spec.job_id.size(), spec.task_id.size());
  CRF_CHECK_EQ(spec.machine_of.size(), spec.task_id.size());
  CRF_CHECK_EQ(spec.start.size(), spec.task_id.size());
  CRF_CHECK_EQ(spec.sched_class.size(), spec.task_id.size());
  CRF_CHECK_EQ(spec.limit.size(), spec.task_id.size());
  CRF_CHECK_EQ(spec.runtime.size(), spec.task_id.size());
  CRF_CHECK_GE(spec.num_intervals, 0);
  CRF_CHECK_GE(spec.dropped_tasks, 0);

  int64_t usage_samples = 0;
  for (int64_t i = 0; i < n; ++i) {
    CRF_CHECK_GE(spec.runtime[i], 0);
    usage_samples += spec.runtime[i];
    CRF_CHECK_GE(spec.machine_of[i], 0) << "task " << i << " has no machine";
    CRF_CHECK_LT(spec.machine_of[i], m) << "task " << i << " machine index out of range";
    CRF_CHECK(i == 0 || spec.machine_of[i] >= spec.machine_of[i - 1])
        << "streaming seal requires machine-major task order (task " << i << ")";
  }
  const int64_t peak_samples = m * spec.num_intervals;

  const trace_internal::ArenaLayout layout =
      trace_internal::ComputeArenaLayout(n, m, usage_samples, peak_samples, n, spec.rich);
  arena_offset_ = sizeof(trace_internal::BinaryHeader) +
                  trace_internal::PaddedNameLength(spec.name.size());
  file_bytes_ = arena_offset_ + layout.total_bytes;
  rich_ = spec.rich;
  usage_samples_ = static_cast<uint64_t>(usage_samples);

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
  arena_ = map_ + arena_offset_;

  // Header + name. ftruncate zero-fills, so the name padding is already 0.
  trace_internal::BinaryHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, trace_internal::kBinaryMagic, sizeof(trace_internal::kBinaryMagic));
  header.version = trace_internal::kBinaryVersion;
  header.flags = spec.rich ? trace_internal::kFlagRich : 0;
  header.num_tasks = n;
  header.num_machines = m;
  header.usage_samples = usage_samples;
  header.peak_samples = peak_samples;
  header.csr_entries = n;
  header.num_intervals = spec.num_intervals;
  header.dropped_tasks = spec.dropped_tasks;
  header.name_length = spec.name.size();
  header.arena_bytes = layout.total_bytes;
  std::memcpy(map_, &header, sizeof(header));
  if (!spec.name.empty()) {
    std::memcpy(map_ + sizeof(header), spec.name.data(), spec.name.size());
  }

  // Metadata columns, written once up front.
  std::memcpy(Slab<TaskId>(arena_, layout.task_id), spec.task_id.data(), n * sizeof(TaskId));
  std::memcpy(Slab<JobId>(arena_, layout.job_id), spec.job_id.data(), n * sizeof(JobId));
  std::memcpy(Slab<int32_t>(arena_, layout.machine_of), spec.machine_of.data(),
              n * sizeof(int32_t));
  std::memcpy(Slab<Interval>(arena_, layout.start), spec.start.data(), n * sizeof(Interval));
  std::memcpy(Slab<uint8_t>(arena_, layout.sched_class), spec.sched_class.data(),
              n * sizeof(uint8_t));
  std::memcpy(Slab<double>(arena_, layout.limit), spec.limit.data(), n * sizeof(double));
  std::memcpy(Slab<double>(arena_, layout.capacity), spec.capacity.data(), m * sizeof(double));

  uint64_t* usage_off = Slab<uint64_t>(arena_, layout.usage_off);
  uint64_t offset = 0;
  for (int64_t i = 0; i < n; ++i) {
    usage_off[i] = offset;
    offset += static_cast<uint64_t>(spec.runtime[i]);
  }
  usage_off[n] = offset;

  uint64_t* peak_off = Slab<uint64_t>(arena_, layout.peak_off);
  uint64_t* csr_off = Slab<uint64_t>(arena_, layout.csr_off);
  int32_t* csr_tasks = Slab<int32_t>(arena_, layout.csr_tasks);
  int64_t next_task = 0;
  for (int64_t machine = 0; machine < m; ++machine) {
    peak_off[machine] = static_cast<uint64_t>(machine * spec.num_intervals);
    csr_off[machine] = static_cast<uint64_t>(next_task);
    while (next_task < n && spec.machine_of[next_task] == machine) {
      ++next_task;
    }
  }
  peak_off[m] = static_cast<uint64_t>(peak_samples);
  csr_off[m] = static_cast<uint64_t>(next_task);
  CRF_CHECK_EQ(next_task, n);
  // Machine-major numbering makes the CSR index the identity permutation.
  for (int64_t i = 0; i < n; ++i) {
    csr_tasks[i] = static_cast<int32_t>(i);
  }

  usage_off_ = usage_off;
  peak_off_ = peak_off;
  csr_off_ = csr_off;
  usage_slab_ = Slab<float>(arena_, layout.usage);
  rich_slab_ = Slab<float>(arena_, layout.rich);
  peak_slab_ = Slab<float>(arena_, layout.true_peak);
  usage_slab_offset_ = layout.usage;
  rich_slab_offset_ = layout.rich;
  peak_slab_offset_ = layout.true_peak;
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

std::span<float> StreamingTraceWriter::usage_row(int32_t task_index) {
  const uint64_t begin = usage_off_[task_index];
  const uint64_t end = usage_off_[task_index + 1];
  return std::span<float>(usage_slab_ + begin, end - begin);
}

std::span<float> StreamingTraceWriter::rich_row(int32_t task_index, RichColumn column) {
  CRF_CHECK(rich_) << "writer was not configured for rich stats";
  const uint64_t begin = usage_off_[task_index];
  const uint64_t end = usage_off_[task_index + 1];
  return std::span<float>(
      rich_slab_ + static_cast<uint64_t>(column) * usage_samples_ + begin, end - begin);
}

std::span<float> StreamingTraceWriter::true_peak_row(int machine_index) {
  const uint64_t begin = peak_off_[machine_index];
  const uint64_t end = peak_off_[machine_index + 1];
  return std::span<float>(peak_slab_ + begin, end - begin);
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
  const uint64_t task_begin = csr_off_[begin_machine];
  const uint64_t task_end = csr_off_[end_machine];
  const uint64_t sample_begin = usage_off_[task_begin];
  const uint64_t sample_end = usage_off_[task_end];
  FlushAndDropArenaRange(usage_slab_offset_ + sample_begin * sizeof(float),
                         usage_slab_offset_ + sample_end * sizeof(float));
  if (rich_) {
    for (int c = 0; c < kNumRichColumns; ++c) {
      const uint64_t column = static_cast<uint64_t>(c) * usage_samples_;
      FlushAndDropArenaRange(rich_slab_offset_ + (column + sample_begin) * sizeof(float),
                             rich_slab_offset_ + (column + sample_end) * sizeof(float));
    }
  }
  FlushAndDropArenaRange(peak_slab_offset_ + peak_off_[begin_machine] * sizeof(float),
                         peak_slab_offset_ + peak_off_[end_machine] * sizeof(float));
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
