// Trace build state: the one arena column writer and the per-task row builder.
//
// ArenaWriter writes every column of a sealed trace (trace.h) into one
// arena, given every task's metadata and runtime as borrowed spans
// (TraceColumns), and then hands out mutable usage, rich and true-peak rows
// that producers fill in place. It is the only code that lays out arena
// columns: the heap generator and the serving filter fill a heap arena
// through it, StreamingTraceWriter (stream_writer.h) fills a mapped file
// through it, and CellTraceBuilder::Seal copies its rows into it.
//
// CellTraceBuilder is for producers that do not know a task's runtime when
// it starts: the closed-loop cluster simulator (which also reads the partial
// trace back in its machine step loop) and tests that build cells by hand.
// It holds per-task row vectors, and Seal() packs them into one arena,
// validating machine indices on the way (a task with an out-of-range machine
// index aborts the seal). Distinct tasks may be built concurrently; AddTask
// and Seal are not thread-safe.

#ifndef CRF_TRACE_TRACE_BUILDER_H_
#define CRF_TRACE_TRACE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crf/trace/trace.h"
#include "crf/util/check.h"
#include "crf/util/time_grid.h"

namespace crf {

// Everything a sealed trace holds except its bulk samples, as borrowed
// views. Per-task spans are indexed by source task, per-machine spans by
// machine.
struct TraceColumns {
  std::string name;
  Interval num_intervals = 0;
  int64_t dropped_tasks = 0;
  bool rich = false;

  std::span<const TaskId> task_id;
  std::span<const JobId> job_id;
  std::span<const int32_t> machine_of;  // each in [0, capacity.size())
  std::span<const Interval> start;
  std::span<const uint8_t> sched_class;
  std::span<const double> limit;
  std::span<const Interval> runtime;  // usage samples per task

  std::span<const double> capacity;
  // True-peak samples per machine; empty gives every machine num_intervals.
  std::span<const Interval> peak_length;
  // Arena row r holds source task order[r]; tasks not listed are left out.
  std::span<const int32_t> order;
};

// The column writer (see the file comment). Usage:
//   ArenaWriter rows(columns);
//   rows.WriteColumnsToHeap();  // or WriteColumns(mapped_file_arena)
//   rows.usage_row(r)[k] = ...;  // fill every bulk row
//   CellTrace cell = rows.Seal();  // heap backing only
class ArenaWriter {
 public:
  // Validates the columns (every machine index in range) and sizes the
  // arena. The spans must stay valid until WriteColumns returns.
  explicit ArenaWriter(const TraceColumns& columns);

  const trace_internal::ArenaLayout& layout() const { return layout_; }
  bool rich() const { return columns_.rich; }
  int32_t num_rows() const { return num_rows_; }
  int64_t usage_samples() const { return usage_samples_; }
  int64_t peak_samples() const { return peak_samples_; }
  // True when rows are machine-major (machine_of non-decreasing by row), so
  // the CSR is the identity and each machine's samples are one run.
  bool machine_major() const { return machine_major_; }

  // Writes every column but the bulk samples into `arena`, a zero-filled
  // region of layout().total_bytes bytes that the rows below then point
  // into. The CSR lists each machine's rows in row order.
  void WriteColumns(std::byte* arena);
  // Allocates a heap arena and writes the columns into it.
  void WriteColumnsToHeap();
  // Seals the heap arena into a trace.
  CellTrace Seal();

  // Machine m's rows, in CSR order. The offset accessors also take one past
  // the last machine or row.
  std::span<const int32_t> machine_rows(int machine_index) const {
    const uint64_t* off = Slab<uint64_t>(layout_.csr_off);
    return {Slab<int32_t>(layout_.csr_tasks) + off[machine_index],
            off[machine_index + 1] - off[machine_index]};
  }
  uint64_t machine_row_offset(int machine_index) const {
    return Slab<uint64_t>(layout_.csr_off)[machine_index];
  }
  uint64_t usage_offset(int64_t row) const { return Slab<uint64_t>(layout_.usage_off)[row]; }
  uint64_t peak_offset(int machine_index) const {
    return Slab<uint64_t>(layout_.peak_off)[machine_index];
  }

  // Mutable bulk rows. Distinct rows may be filled concurrently.
  std::span<float> usage_row(int32_t row) const {
    return {Slab<float>(layout_.usage) + usage_offset(row),
            usage_offset(row + 1) - usage_offset(row)};
  }
  std::span<float> rich_row(int32_t row, RichColumn column) const {
    CRF_CHECK(columns_.rich) << "the arena has no rich ladder";
    return {Slab<float>(layout_.rich) +
                static_cast<uint64_t>(column) * static_cast<uint64_t>(usage_samples_) +
                usage_offset(row),
            usage_offset(row + 1) - usage_offset(row)};
  }
  std::span<float> true_peak_row(int machine_index) const {
    return {Slab<float>(layout_.true_peak) + peak_offset(machine_index),
            peak_offset(machine_index + 1) - peak_offset(machine_index)};
  }

 private:
  template <typename T>
  T* Slab(uint64_t offset) const {
    return reinterpret_cast<T*>(arena_ + offset);
  }

  TraceColumns columns_;  // its spans are read only until WriteColumns returns
  trace_internal::ArenaLayout layout_;
  int32_t num_rows_ = 0;
  int num_machines_ = 0;
  int64_t usage_samples_ = 0;
  int64_t peak_samples_ = 0;
  bool machine_major_ = true;
  std::byte* arena_ = nullptr;
  std::shared_ptr<trace_internal::TraceArena> heap_;
};

class CellTraceBuilder {
 public:
  CellTraceBuilder() = default;
  CellTraceBuilder(std::string name, Interval num_intervals, int num_machines) {
    Reset(std::move(name), num_intervals, num_machines);
  }

  // Clears all build state and starts a fresh cell.
  void Reset(std::string name, Interval num_intervals, int num_machines);

  const std::string& name() const { return name_; }
  Interval num_intervals() const { return num_intervals_; }
  int num_machines() const { return static_cast<int>(capacity_.size()); }
  int32_t num_tasks() const { return static_cast<int32_t>(start_.size()); }

  int64_t dropped_tasks() const { return dropped_tasks_; }
  void set_dropped_tasks(int64_t dropped) { dropped_tasks_ = dropped; }
  void AddDroppedTask() { ++dropped_tasks_; }

  void set_machine_capacity(int machine_index, double capacity);
  double machine_capacity(int machine_index) const { return capacity_[machine_index]; }
  // Ground-truth peak series; size it and write in place (the cluster sim
  // writes true_peak[t] as interval t completes).
  std::vector<float>& mutable_true_peak(int machine_index) { return true_peak_[machine_index]; }
  // Tasks placed on the machine so far, in placement order.
  std::span<const int32_t> machine_tasks(int machine_index) const {
    return machine_tasks_[machine_index];
  }

  // Registers a task and appends it to its machine's task list (when the
  // machine index is in range; out-of-range indices are caught by Seal).
  // Returns the task's index.
  int32_t AddTask(TaskId task_id, JobId job_id, int32_t machine_index, Interval start,
                  double limit, SchedulingClass sched_class);

  void ReserveUsage(int32_t task_index, size_t capacity) {
    usage_[task_index].reserve(capacity);
  }
  void AppendUsage(int32_t task_index, float value) { usage_[task_index].push_back(value); }
  // Rich rows are all-or-nothing per trace: once any task has rich rows,
  // Seal requires every task's rich series to match its usage length.
  void AppendRich(int32_t task_index, const RichUsage& row);

  // Read-back for incremental engines.
  TaskId task_id(int32_t task_index) const { return task_id_[task_index]; }
  JobId job_id(int32_t task_index) const { return job_id_[task_index]; }
  int32_t task_machine(int32_t task_index) const { return machine_of_[task_index]; }
  Interval task_start(int32_t task_index) const { return start_[task_index]; }
  double task_limit(int32_t task_index) const { return limit_[task_index]; }
  SchedulingClass task_class(int32_t task_index) const {
    return static_cast<SchedulingClass>(sched_class_[task_index]);
  }
  std::span<const float> task_usage(int32_t task_index) const { return usage_[task_index]; }
  Interval task_runtime(int32_t task_index) const {
    return static_cast<Interval>(usage_[task_index].size());
  }
  Interval task_end(int32_t task_index) const {
    return start_[task_index] + task_runtime(task_index);
  }

  // Validates invariants (machine indices in range, rich/usage length
  // agreement) and packs all columns into one sealed arena through
  // ArenaWriter. The builder is left in the reset (empty) state.
  CellTrace Seal();

 private:
  std::string name_;
  Interval num_intervals_ = 0;
  int64_t dropped_tasks_ = 0;

  std::vector<TaskId> task_id_;
  std::vector<JobId> job_id_;
  std::vector<int32_t> machine_of_;
  std::vector<Interval> start_;
  std::vector<double> limit_;
  std::vector<uint8_t> sched_class_;
  std::vector<std::vector<float>> usage_;
  std::vector<std::vector<RichUsage>> rich_;

  std::vector<double> capacity_;
  std::vector<std::vector<float>> true_peak_;
  std::vector<std::vector<int32_t>> machine_tasks_;
  bool rich_enabled_ = false;
};

}  // namespace crf

#endif  // CRF_TRACE_TRACE_BUILDER_H_
