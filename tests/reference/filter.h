// Reference serving-class filter: the builder-based reseal.
//
// The library's CellTrace::FilterToServingTasks copies kept rows arena to
// arena through ArenaWriter. This reference rebuilds the filtered trace the
// way the seed did: every kept task is re-added to a CellTraceBuilder in
// task order, its usage and rich rows appended sample by sample, and the
// builder sealed. filter_differential_test pins the two arenas byte for
// byte.

#ifndef CRF_TESTS_REFERENCE_FILTER_H_
#define CRF_TESTS_REFERENCE_FILTER_H_

#include <span>

#include "crf/trace/trace.h"
#include "crf/trace/trace_builder.h"

namespace crf::reference {

inline CellTrace FilterToServingTasks(const CellTrace& cell) {
  CellTraceBuilder builder(cell.name, cell.num_intervals, cell.num_machines());
  builder.set_dropped_tasks(cell.dropped_tasks);
  for (int machine = 0; machine < cell.num_machines(); ++machine) {
    builder.set_machine_capacity(machine, cell.machine_capacity(machine));
    const std::span<const float> peak = cell.true_peak(machine);
    builder.mutable_true_peak(machine).assign(peak.begin(), peak.end());
  }
  // Kept tasks are renumbered in task order and re-appended to their
  // machines' lists in that order.
  for (int32_t index = 0; index < cell.num_tasks(); ++index) {
    const TaskView task = cell.task(index);
    if (!IsServing(task.sched_class())) {
      continue;
    }
    const int32_t copy = builder.AddTask(task.task_id(), task.job_id(), task.machine_index(),
                                         task.start(), task.limit(), task.sched_class());
    const std::span<const float> usage = task.usage();
    builder.ReserveUsage(copy, usage.size());
    for (const float u : usage) {
      builder.AppendUsage(copy, u);
    }
    if (cell.has_rich()) {
      for (Interval k = 0; k < static_cast<Interval>(usage.size()); ++k) {
        builder.AppendRich(copy, task.RichAt(k));
      }
    }
  }
  return builder.Seal();
}

}  // namespace crf::reference

#endif  // CRF_TESTS_REFERENCE_FILTER_H_
