// Mutable build state for a CellTrace.
//
// The generator, the CSV loader, and the closed-loop cluster simulator all
// accumulate a trace incrementally: tasks appear one at a time, usage samples
// are appended interval by interval, and machine ground truth is written as
// the simulation advances. CellTraceBuilder holds that in-progress state in
// ordinary per-task vectors, exposes read-back accessors for engines that
// need to observe the partial trace (the cluster machine step loop), and
// Seal() packs everything into the single immutable arena described in
// trace.h — validating offsets, CSR consistency, and machine indices on the
// way (a task with an out-of-range machine index aborts the seal).
//
// Distinct tasks may be built concurrently (the sharded cluster step loop
// appends usage to different tasks from different threads); AddTask and
// Seal are not thread-safe. Cells too large to hold here are not built at
// all: the streaming generator writes its rows straight into a mapped file
// through StreamingTraceWriter (stream_writer.h).

#ifndef CRF_TRACE_TRACE_BUILDER_H_
#define CRF_TRACE_TRACE_BUILDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

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
  SchedulingClass task_class(int32_t task_index) const { return sched_class_[task_index]; }
  std::span<const float> task_usage(int32_t task_index) const { return usage_[task_index]; }
  Interval task_runtime(int32_t task_index) const {
    return static_cast<Interval>(usage_[task_index].size());
  }
  Interval task_end(int32_t task_index) const {
    return start_[task_index] + task_runtime(task_index);
  }

  // Validates invariants (machine indices in range, rich/usage length
  // agreement) and packs all columns into one sealed arena. The builder is
  // left in the reset (empty) state.
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
  std::vector<SchedulingClass> sched_class_;
  std::vector<std::vector<float>> usage_;
  std::vector<std::vector<RichUsage>> rich_;

  std::vector<double> capacity_;
  std::vector<std::vector<float>> true_peak_;
  std::vector<std::vector<int32_t>> machine_tasks_;
  bool rich_enabled_ = false;
};

}  // namespace crf

#endif  // CRF_TRACE_TRACE_BUILDER_H_
