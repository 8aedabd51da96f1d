// Trace data model: a sealed, columnar cell trace.
//
// Mirrors the slice of the Google cluster trace v3 that the paper's simulator
// consumes: per-task 5-minute CPU usage series with limits and fixed machine
// placements. The public trace reports a usage *distribution* per 5-minute
// interval rather than a single number; the paper feeds the simulator the
// within-interval 90th percentile (Section 5.1.2) and keeps the true
// machine-level within-interval peak as ground truth.
//
// Layout (DESIGN.md §6c): a CellTrace owns ONE contiguous 64-byte-aligned
// arena holding every column as a flat slab —
//
//   task metadata   task_id[N] job_id[N] machine[N] start[N] class[N] limit[N]
//   usage           usage_off[N+1]  usage[S]          (task i's scalar series
//                                                      is usage[off[i]..off[i+1]))
//   rich ladder     rich[9*S] column-major (avg,p50,...,max), optional
//   machines        capacity[M]  peak_off[M+1] true_peak[P]
//   CSR task index  csr_off[M+1] csr_tasks[K]          (machine m's tasks are
//                                                       csr_tasks[off[m]..off[m+1]))
//
// A CellTrace is immutable once sealed by CellTraceBuilder::Seal (or the
// trace_io loaders). Copies are cheap: they share the arena through a
// shared_ptr. All accessors hand out std::span views into the arena; a span
// remains valid as long as ANY CellTrace copy sharing the arena is alive.
// Never retain a span past the last such copy.
//
// Residency rule (unified across the whole stack): a task occupies its
// machine over [start, departure()) where departure() == max(end(), start+1).
// A zero-length task (empty usage series) is therefore resident for exactly
// one interval — holding its limit and counting toward the resident set —
// while contributing zero usage. The event-driven engines, the naive
// reference simulator, and the Machine*Series helpers below all follow this
// one rule.

#ifndef CRF_TRACE_TRACE_H_
#define CRF_TRACE_TRACE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crf/util/time_grid.h"

namespace crf {

using TaskId = int64_t;
using JobId = int64_t;

// Google trace scheduling classes; the paper's simulations keep only the
// latency-sensitive classes 2 and 3 (Section 5.1.2).
enum class SchedulingClass : uint8_t {
  kBestEffort = 0,
  kBatch = 1,
  kLatencySensitive = 2,
  kHighlySensitive = 3,
};

bool IsServing(SchedulingClass sched_class);

// Within-interval usage distribution of one task over one 5-minute interval.
// Used as a row value by the builder and generator; sealed traces store the
// ladder as struct-of-arrays percentile columns (see RichColumn).
struct RichUsage {
  float avg = 0.0f;
  float p50 = 0.0f;
  float p60 = 0.0f;
  float p70 = 0.0f;
  float p80 = 0.0f;
  float p90 = 0.0f;
  float p95 = 0.0f;
  float p99 = 0.0f;
  float max = 0.0f;

  // Returns the percentile column nearest to p (p in {50,60,70,80,90,95,99,
  // 100}); used by the Fig 6 estimator sweep.
  float AtPercentile(int p) const;
};

// Column order of the struct-of-arrays rich ladder in the arena.
enum class RichColumn : int {
  kAvg = 0,
  kP50,
  kP60,
  kP70,
  kP80,
  kP90,
  kP95,
  kP99,
  kMax,
};
inline constexpr int kNumRichColumns = 9;

// The RichUsage field stored in each RichColumn, in column order.
inline constexpr float RichUsage::*kRichColumnFields[kNumRichColumns] = {
    &RichUsage::avg, &RichUsage::p50, &RichUsage::p60, &RichUsage::p70, &RichUsage::p80,
    &RichUsage::p90, &RichUsage::p95, &RichUsage::p99, &RichUsage::max};

// Maps a percentile to the nearest stored column (same rounding as
// RichUsage::AtPercentile).
RichColumn RichColumnForPercentile(int p);

class CellTrace;
class CellTraceBuilder;

namespace trace_internal {

// One 64-byte-aligned region holding every column of a sealed trace. Shared
// (immutably) by every CellTrace copy via shared_ptr. Two backings exist
// behind this one interface:
//   heap   — an aligned allocation, zero-filled, populated by the builder or
//            the byte-stream binary loader;
//   mapped — a read-only mmap of a .crftrace file (MapFromFile). The OS pages
//            columns in on demand, so loading touches only the metadata slabs
//            the validator reads; the bulk usage slab stays non-resident
//            until someone actually scans it, and clean pages are shared
//            across processes mapping the same file.
struct TraceArena {
  explicit TraceArena(uint64_t num_bytes);
  ~TraceArena();
  TraceArena(const TraceArena&) = delete;
  TraceArena& operator=(const TraceArena&) = delete;

  // Maps `path` read-only and exposes the `num_bytes`-long arena blob that
  // starts `arena_offset` bytes into the file. `arena_offset` must be
  // 64-byte aligned (the binary trace format pads the header/name region so
  // this holds, making the mapped slabs exactly as aligned as heap ones).
  // Returns nullptr with `*error` set on failure.
  static std::shared_ptr<const TraceArena> MapFromFile(const std::string& path,
                                                       uint64_t arena_offset, uint64_t num_bytes,
                                                       std::string* error);

  bool is_mapped() const { return map_base != nullptr; }

  // Estimated bytes of the arena currently resident in physical memory:
  // an mincore page scan for mapped arenas, `size` for heap arenas (heap
  // slabs are written in full when sealed, so they are fully resident).
  int64_t ResidentBytes() const;

  // Page-granular residency hints, no-ops on heap arenas. Offsets are
  // relative to `bytes` (the arena blob). PrefetchRange asks the kernel to
  // read the range ahead (MADV_WILLNEED, rounded outward to whole pages);
  // DropRange evicts it from the resident set (MADV_DONTNEED, rounded inward
  // so neighboring data is never evicted). Neither affects correctness —
  // dropped pages transparently refault from the page cache or the file.
  void PrefetchRange(uint64_t offset, uint64_t length) const;
  void DropRange(uint64_t offset, uint64_t length) const;

  std::byte* bytes = nullptr;
  uint64_t size = 0;
  // Mapped backing (empty for heap arenas): the whole-file mapping that
  // `bytes` points into.
  void* map_base = nullptr;
  uint64_t map_length = 0;

 private:
  TraceArena() = default;  // mapped arenas are built by MapFromFile
};

// Shared slab geometry used by the builder, the sealed trace, and the binary
// trace format: the byte offsets of every column for given element counts.
struct ArenaLayout {
  uint64_t task_id = 0;
  uint64_t job_id = 0;
  uint64_t machine_of = 0;
  uint64_t start = 0;
  uint64_t sched_class = 0;
  uint64_t limit = 0;
  uint64_t usage_off = 0;
  uint64_t usage = 0;
  uint64_t rich = 0;  // == usage slab end when !has_rich
  uint64_t capacity = 0;
  uint64_t peak_off = 0;
  uint64_t true_peak = 0;
  uint64_t csr_off = 0;
  uint64_t csr_tasks = 0;
  uint64_t total_bytes = 0;
};
ArenaLayout ComputeArenaLayout(int64_t num_tasks, int64_t num_machines, int64_t usage_samples,
                               int64_t peak_samples, int64_t csr_entries, bool has_rich);

// Seals a trace around an already-populated arena (used by the binary
// loader); the caller is responsible for having validated the arena contents.
CellTrace AttachTrace(std::string name, Interval num_intervals, int64_t dropped_tasks,
                      std::shared_ptr<const TraceArena> arena, int64_t num_tasks,
                      int64_t num_machines, int64_t usage_samples, int64_t peak_samples,
                      int64_t csr_entries, bool has_rich);

}  // namespace trace_internal

// Non-owning view of one task in a sealed CellTrace. Cheap to copy (pointer +
// index); valid only while the underlying arena is alive.
class TaskView {
 public:
  TaskView(const CellTrace* cell, int32_t index) : cell_(cell), index_(index) {}

  int32_t index() const { return index_; }
  TaskId task_id() const;
  JobId job_id() const;
  int32_t machine_index() const;
  Interval start() const;
  double limit() const;
  SchedulingClass sched_class() const;

  // Per-interval usage scalar (within-interval p90, capped at limit);
  // usage()[k] covers interval start() + k.
  std::span<const float> usage() const;
  Interval runtime() const { return static_cast<Interval>(usage().size()); }
  // One past the last interval with usage.
  Interval end() const { return start() + runtime(); }
  // One past the last resident interval: max(end(), start()+1). This is the
  // single residency rule — a zero-length task departs after one interval.
  Interval departure() const { return std::max(end(), start() + 1); }
  bool ResidentAt(Interval t) const { return t >= start() && t < departure(); }
  // Usage at interval t; 0 outside the usage series (including the one
  // resident interval of a zero-length task).
  double UsageAt(Interval t) const {
    const std::span<const float> u = usage();
    const int64_t k = static_cast<int64_t>(t) - start();
    return k >= 0 && k < static_cast<int64_t>(u.size()) ? static_cast<double>(u[k]) : 0.0;
  }
  // Peak of the scalar usage series over the task's whole lifetime.
  double PeakUsage() const;

  // Rich ladder access; only valid when the cell has_rich().
  std::span<const float> rich_column(RichColumn column) const;
  // The full ladder row for lifetime offset k (interval start() + k).
  RichUsage RichAt(Interval k) const;

 private:
  const CellTrace* cell_;
  int32_t index_;
};

// A sealed, columnar cell trace. Construct with CellTraceBuilder or the
// trace_io loaders; default-constructed traces are empty (0 machines/tasks).
class CellTrace {
 public:
  std::string name;
  Interval num_intervals = 0;
  // Tasks the generator's placement step could not fit anywhere (reporting
  // only; they have no usage and no machine).
  int64_t dropped_tasks = 0;

  CellTrace() = default;

  int32_t num_tasks() const { return static_cast<int32_t>(start_.size()); }
  int32_t num_machines() const { return static_cast<int32_t>(capacity_.size()); }
  TaskView task(int32_t index) const { return TaskView(this, index); }

  // Indices into tasks of every task ever placed on machine m, in placement
  // order (one CSR row).
  std::span<const int32_t> machine_tasks(int machine_index) const;
  double machine_capacity(int machine_index) const;
  // Ground-truth within-interval machine peak per interval (sum over resident
  // tasks of time-aligned sub-interval samples, maximized over sub-instants).
  // Empty when the trace carries no ground truth for this machine.
  std::span<const float> true_peak(int machine_index) const;

  bool has_rich() const { return !rich_.empty(); }

  // Raw columns (parallel arrays indexed by task).
  std::span<const TaskId> task_ids() const { return task_id_; }
  std::span<const JobId> job_ids() const { return job_id_; }
  std::span<const int32_t> task_machines() const { return machine_of_; }
  std::span<const Interval> task_starts() const { return start_; }
  std::span<const uint8_t> task_classes() const { return sched_class_; }
  std::span<const double> task_limits() const { return limit_; }
  // One contiguous slab of all tasks' usage samples; task i owns
  // [usage_offsets()[i], usage_offsets()[i+1]).
  std::span<const float> usage_arena() const { return usage_; }
  std::span<const uint64_t> usage_offsets() const { return usage_off_; }

  // The whole sealed arena, for the binary trace writer. Empty only for a
  // default-constructed (never sealed) trace.
  std::span<const std::byte> arena_bytes() const {
    return arena_ == nullptr ? std::span<const std::byte>()
                             : std::span<const std::byte>(arena_->bytes, arena_->size);
  }
  int64_t usage_sample_count() const { return static_cast<int64_t>(usage_.size()); }
  int64_t peak_sample_count() const { return static_cast<int64_t>(peak_.size()); }

  // True when the arena is an mmap of a .crftrace file rather than a heap
  // allocation (see trace_internal::TraceArena).
  bool is_mapped() const { return arena_ != nullptr && arena_->is_mapped(); }
  // Estimated bytes of the arena resident in physical memory (== arena size
  // for heap-backed traces).
  int64_t ResidentArenaBytes() const {
    return arena_ == nullptr ? 0 : arena_->ResidentBytes();
  }

  // True when machine m's CSR row is the contiguous ascending index range
  // [row.front(), row.front() + row.size()) — the layout streamed generation
  // produces, where the machine's usage samples are one contiguous arena run.
  bool MachineRowsContiguous(int machine_index) const;
  // Residency hints for machine m's bulk slabs (usage, rich, true_peak).
  // No-ops unless the trace is mapped and the machine's rows are contiguous.
  // PrefetchMachinePages warms the pages before a sequential scan;
  // DropMachinePages evicts them once a shard is done with the machine, so
  // a full-cell replay's resident set scales with machines-in-flight rather
  // than cell size. Neither ever changes results.
  void PrefetchMachinePages(int machine_index) const;
  void DropMachinePages(int machine_index) const;
  // Blocked form: one madvise per slab for machines [begin, end) when their
  // rows chain contiguously (the machine-major streamed layout); otherwise
  // falls back to per-machine drops. Prefer this from loops — the inward
  // page rounding of a per-machine drop strands the boundary page between
  // every pair of adjacent machines.
  void DropMachinePages(int begin_machine, int end_machine) const;

  // Machine aggregate series, rebuilt on arrival/departure event deltas:
  // O(N_m + T) for limits/residency and O(S_m + T) for usage, instead of the
  // seed's O(N_m * T) rescans. All follow the unified residency rule.
  std::vector<double> MachineUsageSeries(int machine_index) const;
  std::vector<double> MachineLimitSeries(int machine_index) const;
  std::vector<int32_t> MachineResidentCount(int machine_index) const;

  // Removes tasks whose scheduling class fails `IsServing` (mirrors the
  // paper's filter to classes 2-3), resealing into a fresh arena.
  // true_peak keeps the filtered-out batch tasks' contribution; it remains
  // valid as ground truth for "everything that ran on the machine".
  void FilterToServingTasks();

  int64_t TotalTaskCount() const { return num_tasks(); }
  double TotalCapacity() const;

 private:
  friend class TaskView;
  friend class CellTraceBuilder;
  friend class MachineSeriesCursor;
  friend CellTrace trace_internal::AttachTrace(std::string, Interval, int64_t,
                                               std::shared_ptr<const trace_internal::TraceArena>,
                                               int64_t, int64_t, int64_t, int64_t, int64_t, bool);

  // Points the column spans into `arena` using the layout implied by the
  // element counts; called by the builder and the binary loader.
  void Attach(std::shared_ptr<const trace_internal::TraceArena> arena, int64_t num_tasks,
              int64_t num_machines, int64_t usage_samples, int64_t peak_samples,
              int64_t csr_entries, bool has_rich);

  std::shared_ptr<const trace_internal::TraceArena> arena_;
  std::span<const TaskId> task_id_;
  std::span<const JobId> job_id_;
  std::span<const int32_t> machine_of_;
  std::span<const Interval> start_;
  std::span<const uint8_t> sched_class_;
  std::span<const double> limit_;
  std::span<const uint64_t> usage_off_;
  std::span<const float> usage_;
  std::span<const float> rich_;  // 9*S floats, column-major; empty if no rich
  std::span<const double> capacity_;
  std::span<const uint64_t> peak_off_;
  std::span<const float> peak_;
  std::span<const uint64_t> csr_off_;
  std::span<const int32_t> csr_tasks_;
};

// Streams one machine's per-interval aggregates (usage sum, limit sum,
// resident count) without allocating per call. Reset(m) materialises all
// three series in one fused O(tasks + T) pass over the machine's CSR row:
// usage is scatter-added straight out of the contiguous arena, limits and
// resident counts via event deltas (+ at start, - at departure) followed by
// a prefix sum. The internal buffers are reused across machines, so a loop
// over every machine performs zero allocations after the first Reset.
//
// Usage:
//   MachineSeriesCursor cursor(cell);
//   cursor.Reset(m);
//   while (cursor.Next()) {
//     use(cursor.interval(), cursor.usage(), cursor.limit_sum(),
//         cursor.resident());
//   }
//
// Next() visits every interval in [0, cell.num_intervals) in order. The
// cursor borrows the cell's arena; it must not outlive the trace.
class MachineSeriesCursor {
 public:
  explicit MachineSeriesCursor(const CellTrace& cell);

  void Reset(int machine_index);
  bool Next();

  Interval interval() const { return t_; }
  double usage() const { return usage_buf_[t_]; }
  double limit_sum() const { return limit_buf_[t_]; }
  int32_t resident() const { return resident_buf_[t_]; }

 private:
  const CellTrace* cell_;
  std::vector<double> usage_buf_;     // per-interval usage sum
  std::vector<double> limit_buf_;     // per-interval resident limit sum
  std::vector<int32_t> resident_buf_; // per-interval resident count
  Interval t_ = -1;
};

inline TaskId TaskView::task_id() const { return cell_->task_id_[index_]; }
inline JobId TaskView::job_id() const { return cell_->job_id_[index_]; }
inline int32_t TaskView::machine_index() const { return cell_->machine_of_[index_]; }
inline Interval TaskView::start() const { return cell_->start_[index_]; }
inline double TaskView::limit() const { return cell_->limit_[index_]; }
inline SchedulingClass TaskView::sched_class() const {
  return static_cast<SchedulingClass>(cell_->sched_class_[index_]);
}
inline std::span<const float> TaskView::usage() const {
  const uint64_t begin = cell_->usage_off_[index_];
  const uint64_t end = cell_->usage_off_[index_ + 1];
  return cell_->usage_.subspan(begin, end - begin);
}

}  // namespace crf

#endif  // CRF_TRACE_TRACE_H_
