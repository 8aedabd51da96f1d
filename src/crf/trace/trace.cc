#include "crf/trace/trace.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>

#include "crf/util/check.h"

namespace crf {
namespace trace_internal {
namespace {

constexpr uint64_t kSlabAlignment = 64;

constexpr uint64_t AlignUp(uint64_t offset) {
  return (offset + kSlabAlignment - 1) & ~(kSlabAlignment - 1);
}

uint64_t PageSize() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

TraceArena::TraceArena(uint64_t num_bytes) : size(num_bytes) {
  if (num_bytes > 0) {
    bytes = static_cast<std::byte*>(
        ::operator new(num_bytes, std::align_val_t{kSlabAlignment}));
    std::memset(bytes, 0, num_bytes);
  }
}

TraceArena::~TraceArena() {
  if (map_base != nullptr) {
    ::munmap(map_base, map_length);
  } else if (bytes != nullptr) {
    ::operator delete(bytes, std::align_val_t{kSlabAlignment});
  }
}

std::shared_ptr<const TraceArena> TraceArena::MapFromFile(const std::string& path,
                                                          uint64_t arena_offset,
                                                          uint64_t num_bytes,
                                                          std::string* error) {
  const auto fail = [error](std::string message) -> std::shared_ptr<const TraceArena> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return nullptr;
  };
  if (arena_offset % kSlabAlignment != 0) {
    return fail("arena offset " + std::to_string(arena_offset) + " is not 64-byte aligned");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return fail("cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return fail("cannot stat " + path + ": " + std::strerror(err));
  }
  const uint64_t need = arena_offset + num_bytes;
  if (static_cast<uint64_t>(st.st_size) < need) {
    ::close(fd);
    return fail("truncated file: mapping needs " + std::to_string(need) + " bytes, " + path +
                " has " + std::to_string(st.st_size));
  }
  // Map from offset 0 (mmap offsets must be page-aligned; the arena offset
  // is only 64-aligned) and point `bytes` into the mapping. Page alignment
  // of the base plus 64-alignment of the offset gives 64-aligned slabs.
  void* base = ::mmap(nullptr, need, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_errno = errno;
  ::close(fd);  // The mapping keeps its own reference to the file.
  if (base == MAP_FAILED) {
    return fail("mmap of " + path + " failed: " + std::strerror(map_errno));
  }
  // Suppress readahead so validation faults in only the metadata slabs it
  // actually reads; sequential consumers opt back in via PrefetchRange.
  ::madvise(base, need, MADV_RANDOM);

  auto arena = std::shared_ptr<TraceArena>(new TraceArena());
  arena->map_base = base;
  arena->map_length = need;
  arena->bytes = static_cast<std::byte*>(base) + arena_offset;
  arena->size = num_bytes;
  return arena;
}

int64_t TraceArena::ResidentBytes() const {
  if (!is_mapped()) {
    return static_cast<int64_t>(size);
  }
  if (size == 0) {
    return 0;
  }
  const uint64_t page = PageSize();
  const uintptr_t begin = reinterpret_cast<uintptr_t>(bytes) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(bytes) + size;
  const uint64_t num_pages = (end - begin + page - 1) / page;
  std::vector<unsigned char> vec(std::min<uint64_t>(num_pages, 1u << 16));
  int64_t resident_pages = 0;
  uint64_t done = 0;
  while (done < num_pages) {
    const uint64_t chunk = std::min<uint64_t>(num_pages - done, vec.size());
    if (::mincore(reinterpret_cast<void*>(begin + done * page), chunk * page, vec.data()) != 0) {
      return static_cast<int64_t>(size);  // Conservative fallback.
    }
    for (uint64_t i = 0; i < chunk; ++i) {
      resident_pages += vec[i] & 1;
    }
    done += chunk;
  }
  return std::min<int64_t>(resident_pages * static_cast<int64_t>(page),
                           static_cast<int64_t>(size));
}

void TraceArena::PrefetchRange(uint64_t offset, uint64_t length) const {
  if (!is_mapped() || length == 0 || offset >= size) {
    return;
  }
  length = std::min(length, size - offset);
  const uint64_t page = PageSize();
  const uintptr_t begin = (reinterpret_cast<uintptr_t>(bytes) + offset) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(bytes) + offset + length;
  ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_WILLNEED);
}

void TraceArena::DropRange(uint64_t offset, uint64_t length) const {
  if (!is_mapped() || length == 0 || offset >= size) {
    return;
  }
  length = std::min(length, size - offset);
  const uint64_t page = PageSize();
  // Round inward: never evict a page shared with data outside the range.
  const uintptr_t begin =
      (reinterpret_cast<uintptr_t>(bytes) + offset + page - 1) & ~(page - 1);
  const uintptr_t end = (reinterpret_cast<uintptr_t>(bytes) + offset + length) & ~(page - 1);
  if (begin < end) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
  }
}

ArenaLayout ComputeArenaLayout(int64_t num_tasks, int64_t num_machines, int64_t usage_samples,
                               int64_t peak_samples, int64_t csr_entries, bool has_rich) {
  CRF_CHECK_GE(num_tasks, 0);
  CRF_CHECK_GE(num_machines, 0);
  CRF_CHECK_GE(usage_samples, 0);
  CRF_CHECK_GE(peak_samples, 0);
  CRF_CHECK_GE(csr_entries, 0);
  const uint64_t n = static_cast<uint64_t>(num_tasks);
  const uint64_t m = static_cast<uint64_t>(num_machines);
  const uint64_t s = static_cast<uint64_t>(usage_samples);
  const uint64_t p = static_cast<uint64_t>(peak_samples);
  const uint64_t k = static_cast<uint64_t>(csr_entries);

  ArenaLayout layout;
  uint64_t offset = 0;
  const auto slab = [&offset](uint64_t elements, uint64_t element_size) {
    const uint64_t begin = AlignUp(offset);
    offset = begin + elements * element_size;
    return begin;
  };
  layout.task_id = slab(n, sizeof(TaskId));
  layout.job_id = slab(n, sizeof(JobId));
  layout.machine_of = slab(n, sizeof(int32_t));
  layout.start = slab(n, sizeof(Interval));
  layout.sched_class = slab(n, sizeof(uint8_t));
  layout.limit = slab(n, sizeof(double));
  layout.usage_off = slab(n + 1, sizeof(uint64_t));
  layout.usage = slab(s, sizeof(float));
  layout.rich = slab(has_rich ? kNumRichColumns * s : 0, sizeof(float));
  layout.capacity = slab(m, sizeof(double));
  layout.peak_off = slab(m + 1, sizeof(uint64_t));
  layout.true_peak = slab(p, sizeof(float));
  layout.csr_off = slab(m + 1, sizeof(uint64_t));
  layout.csr_tasks = slab(k, sizeof(int32_t));
  layout.total_bytes = AlignUp(offset);
  return layout;
}

CellTrace AttachTrace(std::string name, Interval num_intervals, int64_t dropped_tasks,
                      std::shared_ptr<const TraceArena> arena, int64_t num_tasks,
                      int64_t num_machines, int64_t usage_samples, int64_t peak_samples,
                      int64_t csr_entries, bool has_rich) {
  CellTrace cell;
  cell.name = std::move(name);
  cell.num_intervals = num_intervals;
  cell.dropped_tasks = dropped_tasks;
  cell.Attach(std::move(arena), num_tasks, num_machines, usage_samples, peak_samples, csr_entries,
              has_rich);
  return cell;
}

}  // namespace trace_internal

bool IsServing(SchedulingClass sched_class) {
  return sched_class == SchedulingClass::kLatencySensitive ||
         sched_class == SchedulingClass::kHighlySensitive;
}

float RichUsage::AtPercentile(int p) const {
  if (p <= 50) {
    return p50;
  }
  switch (p) {
    case 60:
      return p60;
    case 70:
      return p70;
    case 80:
      return p80;
    case 90:
      return p90;
    case 95:
      return p95;
    case 99:
      return p99;
    default:
      return max;
  }
}

RichColumn RichColumnForPercentile(int p) {
  if (p <= 50) {
    return RichColumn::kP50;
  }
  switch (p) {
    case 60:
      return RichColumn::kP60;
    case 70:
      return RichColumn::kP70;
    case 80:
      return RichColumn::kP80;
    case 90:
      return RichColumn::kP90;
    case 95:
      return RichColumn::kP95;
    case 99:
      return RichColumn::kP99;
    default:
      return RichColumn::kMax;
  }
}

double TaskView::PeakUsage() const {
  double peak = 0.0;
  for (const float u : usage()) {
    peak = std::max(peak, static_cast<double>(u));
  }
  return peak;
}

std::span<const float> TaskView::rich_column(RichColumn column) const {
  CRF_CHECK(cell_->has_rich()) << "trace has no rich within-interval stats";
  const uint64_t samples = cell_->usage_off_.back();
  const uint64_t begin = cell_->usage_off_[index_];
  const uint64_t end = cell_->usage_off_[index_ + 1];
  return cell_->rich_.subspan(static_cast<uint64_t>(column) * samples + begin, end - begin);
}

RichUsage TaskView::RichAt(Interval k) const {
  CRF_CHECK(cell_->has_rich()) << "trace has no rich within-interval stats";
  const uint64_t samples = cell_->usage_off_.back();
  const uint64_t at = cell_->usage_off_[index_] + static_cast<uint64_t>(k);
  CRF_CHECK_LT(at, cell_->usage_off_[index_ + 1]);
  const std::span<const float> rich = cell_->rich_;
  RichUsage row;
  for (int c = 0; c < kNumRichColumns; ++c) {
    row.*kRichColumnFields[c] = rich[c * samples + at];
  }
  return row;
}

void CellTrace::Attach(std::shared_ptr<const trace_internal::TraceArena> arena, int64_t num_tasks,
                       int64_t num_machines, int64_t usage_samples, int64_t peak_samples,
                       int64_t csr_entries, bool has_rich) {
  const trace_internal::ArenaLayout layout = trace_internal::ComputeArenaLayout(
      num_tasks, num_machines, usage_samples, peak_samples, csr_entries, has_rich);
  CRF_CHECK(arena != nullptr);
  CRF_CHECK_EQ(arena->size, layout.total_bytes);
  const std::byte* base = arena->bytes;
  arena_ = std::move(arena);

  const auto column = [base](uint64_t offset, auto* type_tag, uint64_t elements) {
    using T = std::remove_pointer_t<decltype(type_tag)>;
    return std::span<const T>(reinterpret_cast<const T*>(base + offset), elements);
  };
  const uint64_t n = static_cast<uint64_t>(num_tasks);
  const uint64_t m = static_cast<uint64_t>(num_machines);
  task_id_ = column(layout.task_id, static_cast<TaskId*>(nullptr), n);
  job_id_ = column(layout.job_id, static_cast<JobId*>(nullptr), n);
  machine_of_ = column(layout.machine_of, static_cast<int32_t*>(nullptr), n);
  start_ = column(layout.start, static_cast<Interval*>(nullptr), n);
  sched_class_ = column(layout.sched_class, static_cast<uint8_t*>(nullptr), n);
  limit_ = column(layout.limit, static_cast<double*>(nullptr), n);
  usage_off_ = column(layout.usage_off, static_cast<uint64_t*>(nullptr), n + 1);
  usage_ = column(layout.usage, static_cast<float*>(nullptr), static_cast<uint64_t>(usage_samples));
  rich_ = column(layout.rich, static_cast<float*>(nullptr),
                 has_rich ? kNumRichColumns * static_cast<uint64_t>(usage_samples) : 0);
  capacity_ = column(layout.capacity, static_cast<double*>(nullptr), m);
  peak_off_ = column(layout.peak_off, static_cast<uint64_t*>(nullptr), m + 1);
  peak_ = column(layout.true_peak, static_cast<float*>(nullptr),
                 static_cast<uint64_t>(peak_samples));
  csr_off_ = column(layout.csr_off, static_cast<uint64_t*>(nullptr), m + 1);
  csr_tasks_ =
      column(layout.csr_tasks, static_cast<int32_t*>(nullptr), static_cast<uint64_t>(csr_entries));
}

std::span<const int32_t> CellTrace::machine_tasks(int machine_index) const {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, num_machines());
  const uint64_t begin = csr_off_[machine_index];
  const uint64_t end = csr_off_[machine_index + 1];
  return csr_tasks_.subspan(begin, end - begin);
}

double CellTrace::machine_capacity(int machine_index) const {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, num_machines());
  return capacity_[machine_index];
}

std::span<const float> CellTrace::true_peak(int machine_index) const {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, num_machines());
  const uint64_t begin = peak_off_[machine_index];
  const uint64_t end = peak_off_[machine_index + 1];
  return peak_.subspan(begin, end - begin);
}

bool CellTrace::MachineRowsContiguous(int machine_index) const {
  const std::span<const int32_t> row = machine_tasks(machine_index);
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i] != row[0] + static_cast<int32_t>(i)) {
      return false;
    }
  }
  return true;
}

namespace {

// Byte offset of `slab` within `arena` (both borrow the same allocation).
uint64_t SlabOffset(const trace_internal::TraceArena& arena, const void* slab) {
  return static_cast<uint64_t>(static_cast<const std::byte*>(slab) - arena.bytes);
}

}  // namespace

void CellTrace::PrefetchMachinePages(int machine_index) const {
  if (!is_mapped() || !MachineRowsContiguous(machine_index)) {
    return;
  }
  const std::span<const int32_t> row = machine_tasks(machine_index);
  if (!row.empty()) {
    const uint64_t first = usage_off_[row.front()];
    const uint64_t last = usage_off_[row.front() + static_cast<int32_t>(row.size())];
    arena_->PrefetchRange(SlabOffset(*arena_, usage_.data()) + first * sizeof(float),
                          (last - first) * sizeof(float));
    if (has_rich()) {
      const uint64_t samples = usage_off_.back();
      for (int c = 0; c < kNumRichColumns; ++c) {
        arena_->PrefetchRange(
            SlabOffset(*arena_, rich_.data()) + (c * samples + first) * sizeof(float),
            (last - first) * sizeof(float));
      }
    }
  }
  const uint64_t peak_first = peak_off_[machine_index];
  const uint64_t peak_last = peak_off_[machine_index + 1];
  arena_->PrefetchRange(SlabOffset(*arena_, peak_.data()) + peak_first * sizeof(float),
                        (peak_last - peak_first) * sizeof(float));
}

void CellTrace::DropMachinePages(int machine_index) const {
  if (!is_mapped() || !MachineRowsContiguous(machine_index)) {
    return;
  }
  const std::span<const int32_t> row = machine_tasks(machine_index);
  if (!row.empty()) {
    const uint64_t first = usage_off_[row.front()];
    const uint64_t last = usage_off_[row.front() + static_cast<int32_t>(row.size())];
    arena_->DropRange(SlabOffset(*arena_, usage_.data()) + first * sizeof(float),
                      (last - first) * sizeof(float));
    if (has_rich()) {
      const uint64_t samples = usage_off_.back();
      for (int c = 0; c < kNumRichColumns; ++c) {
        arena_->DropRange(
            SlabOffset(*arena_, rich_.data()) + (c * samples + first) * sizeof(float),
            (last - first) * sizeof(float));
      }
    }
  }
  const uint64_t peak_first = peak_off_[machine_index];
  const uint64_t peak_last = peak_off_[machine_index + 1];
  arena_->DropRange(SlabOffset(*arena_, peak_.data()) + peak_first * sizeof(float),
                    (peak_last - peak_first) * sizeof(float));
}

void CellTrace::DropMachinePages(int begin_machine, int end_machine) const {
  if (!is_mapped() || begin_machine >= end_machine) {
    return;
  }
  // One madvise per slab for the whole block when the machines' rows chain
  // into a single contiguous task range (the machine-major streamed layout).
  // DropRange rounds inward, so a per-machine loop strands the page each
  // machine boundary straddles — O(machines) pages that never get returned;
  // the blocked form strands at most one page per block edge.
  int32_t first_task = -1;
  int32_t next_task = -1;
  bool chained = true;
  for (int m = begin_machine; m < end_machine && chained; ++m) {
    if (!MachineRowsContiguous(m)) {
      chained = false;
      break;
    }
    const std::span<const int32_t> row = machine_tasks(m);
    if (row.empty()) {
      continue;
    }
    if (first_task < 0) {
      first_task = row.front();
    } else if (row.front() != next_task) {
      chained = false;
      break;
    }
    next_task = row.front() + static_cast<int32_t>(row.size());
  }
  if (!chained) {
    for (int m = begin_machine; m < end_machine; ++m) {
      DropMachinePages(m);
    }
    return;
  }
  if (first_task >= 0) {
    const uint64_t first = usage_off_[first_task];
    const uint64_t last = usage_off_[next_task];
    arena_->DropRange(SlabOffset(*arena_, usage_.data()) + first * sizeof(float),
                      (last - first) * sizeof(float));
    if (has_rich()) {
      const uint64_t samples = usage_off_.back();
      for (int c = 0; c < kNumRichColumns; ++c) {
        arena_->DropRange(
            SlabOffset(*arena_, rich_.data()) + (c * samples + first) * sizeof(float),
            (last - first) * sizeof(float));
      }
    }
  }
  const uint64_t peak_first = peak_off_[begin_machine];
  const uint64_t peak_last = peak_off_[end_machine];
  arena_->DropRange(SlabOffset(*arena_, peak_.data()) + peak_first * sizeof(float),
                    (peak_last - peak_first) * sizeof(float));
}

std::vector<double> CellTrace::MachineUsageSeries(int machine_index) const {
  std::vector<double> series(num_intervals, 0.0);
  MachineSeriesCursor cursor(*this);
  cursor.Reset(machine_index);
  while (cursor.Next()) {
    series[cursor.interval()] = cursor.usage();
  }
  return series;
}

std::vector<double> CellTrace::MachineLimitSeries(int machine_index) const {
  // Event deltas: +limit at start, -limit at departure, then one prefix sum.
  std::vector<double> series(num_intervals + 1, 0.0);
  for (const int32_t index : machine_tasks(machine_index)) {
    const TaskView task = this->task(index);
    const Interval begin = std::clamp<Interval>(task.start(), 0, num_intervals);
    const Interval end = std::clamp<Interval>(task.departure(), begin, num_intervals);
    series[begin] += task.limit();
    series[end] -= task.limit();
  }
  double running = 0.0;
  for (Interval t = 0; t < num_intervals; ++t) {
    running += series[t];
    series[t] = running;
  }
  series.resize(num_intervals);
  return series;
}

std::vector<int32_t> CellTrace::MachineResidentCount(int machine_index) const {
  std::vector<int32_t> counts(num_intervals + 1, 0);
  for (const int32_t index : machine_tasks(machine_index)) {
    const TaskView task = this->task(index);
    const Interval begin = std::clamp<Interval>(task.start(), 0, num_intervals);
    const Interval end = std::clamp<Interval>(task.departure(), begin, num_intervals);
    ++counts[begin];
    --counts[end];
  }
  int32_t running = 0;
  for (Interval t = 0; t < num_intervals; ++t) {
    running += counts[t];
    counts[t] = running;
  }
  counts.resize(num_intervals);
  return counts;
}

double CellTrace::TotalCapacity() const {
  double total = 0.0;
  for (const double capacity : capacity_) {
    total += capacity;
  }
  return total;
}

MachineSeriesCursor::MachineSeriesCursor(const CellTrace& cell) : cell_(&cell) {}

void MachineSeriesCursor::Reset(int machine_index) {
  // One sequential pass over the machine's contiguous slab runs is about to
  // happen; on mapped traces, ask the kernel to read them ahead.
  cell_->PrefetchMachinePages(machine_index);
  const Interval num_intervals = cell_->num_intervals;
  usage_buf_.assign(static_cast<size_t>(num_intervals), 0.0);
  limit_buf_.assign(static_cast<size_t>(num_intervals) + 1, 0.0);
  resident_buf_.assign(static_cast<size_t>(num_intervals) + 1, 0);
  t_ = -1;

  const std::span<const float> arena = cell_->usage_;
  for (const int32_t index : cell_->machine_tasks(machine_index)) {
    const Interval start = cell_->start_[index];
    const uint64_t begin = cell_->usage_off_[index];
    const uint64_t samples = cell_->usage_off_[index + 1] - begin;
    // Usage: scatter-add the task's contiguous arena run over its lifetime.
    const Interval usage_end =
        std::min<Interval>(start + static_cast<Interval>(samples), num_intervals);
    for (Interval t = std::max<Interval>(start, 0); t < usage_end; ++t) {
      usage_buf_[t] += static_cast<double>(arena[begin + static_cast<uint64_t>(t - start)]);
    }
    // Limits and residency: event deltas over [start, departure()).
    const TaskView task = cell_->task(index);
    const Interval from = std::clamp<Interval>(start, 0, num_intervals);
    const Interval to = std::clamp<Interval>(task.departure(), from, num_intervals);
    limit_buf_[from] += task.limit();
    limit_buf_[to] -= task.limit();
    ++resident_buf_[from];
    --resident_buf_[to];
  }
  double limit_running = 0.0;
  int32_t resident_running = 0;
  for (Interval t = 0; t < num_intervals; ++t) {
    limit_running += limit_buf_[t];
    limit_buf_[t] = limit_running;
    resident_running += resident_buf_[t];
    resident_buf_[t] = resident_running;
  }
}

bool MachineSeriesCursor::Next() {
  ++t_;
  return t_ < cell_->num_intervals;
}

}  // namespace crf
