#include "crf/trace/trace_builder.h"

#include <cstring>
#include <memory>

#include "crf/util/check.h"

namespace crf {
namespace {

// Typed write access to one slab of an arena under construction.
template <typename T>
std::span<T> MutableSlab(trace_internal::TraceArena& arena, uint64_t offset, uint64_t elements) {
  return std::span<T>(reinterpret_cast<T*>(arena.bytes + offset), elements);
}

}  // namespace

void CellTraceBuilder::Reset(std::string name, Interval num_intervals, int num_machines) {
  CRF_CHECK_GE(num_intervals, 0);
  CRF_CHECK_GE(num_machines, 0);
  name_ = std::move(name);
  num_intervals_ = num_intervals;
  dropped_tasks_ = 0;
  task_id_.clear();
  job_id_.clear();
  machine_of_.clear();
  start_.clear();
  limit_.clear();
  sched_class_.clear();
  usage_.clear();
  rich_.clear();
  capacity_.assign(num_machines, 1.0);
  true_peak_.assign(num_machines, {});
  machine_tasks_.assign(num_machines, {});
  rich_enabled_ = false;
}

void CellTraceBuilder::set_machine_capacity(int machine_index, double capacity) {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, num_machines());
  capacity_[machine_index] = capacity;
}

int32_t CellTraceBuilder::AddTask(TaskId task_id, JobId job_id, int32_t machine_index,
                                  Interval start, double limit, SchedulingClass sched_class) {
  const int32_t index = num_tasks();
  task_id_.push_back(task_id);
  job_id_.push_back(job_id);
  machine_of_.push_back(machine_index);
  start_.push_back(start);
  limit_.push_back(limit);
  sched_class_.push_back(sched_class);
  usage_.emplace_back();
  rich_.emplace_back();
  if (machine_index >= 0 && machine_index < num_machines()) {
    machine_tasks_[machine_index].push_back(index);
  }
  return index;
}

void CellTraceBuilder::AppendRich(int32_t task_index, const RichUsage& row) {
  rich_enabled_ = true;
  rich_[task_index].push_back(row);
}

CellTrace CellTraceBuilder::Seal() {
  const int32_t n = num_tasks();
  const int m = num_machines();

  int64_t samples = 0;
  for (int32_t i = 0; i < n; ++i) {
    CRF_CHECK_GE(machine_of_[i], 0) << "task " << i << " has no machine";
    CRF_CHECK_LT(machine_of_[i], m) << "task " << i << " machine index out of range";
    if (rich_enabled_) {
      CRF_CHECK_EQ(rich_[i].size(), usage_[i].size())
          << "task " << i << " rich ladder does not match its usage series";
    }
    samples += static_cast<int64_t>(usage_[i].size());
  }
  int64_t peak_samples = 0;
  int64_t csr_entries = 0;
  for (int machine = 0; machine < m; ++machine) {
    peak_samples += static_cast<int64_t>(true_peak_[machine].size());
    csr_entries += static_cast<int64_t>(machine_tasks_[machine].size());
  }
  CRF_CHECK_EQ(csr_entries, n) << "CSR rows must cover every task exactly once";

  const trace_internal::ArenaLayout layout =
      trace_internal::ComputeArenaLayout(n, m, samples, peak_samples, csr_entries, rich_enabled_);
  auto arena = std::make_shared<trace_internal::TraceArena>(layout.total_bytes);

  const auto ids = MutableSlab<TaskId>(*arena, layout.task_id, n);
  const auto jobs = MutableSlab<JobId>(*arena, layout.job_id, n);
  const auto machines_of = MutableSlab<int32_t>(*arena, layout.machine_of, n);
  const auto starts = MutableSlab<Interval>(*arena, layout.start, n);
  const auto classes = MutableSlab<uint8_t>(*arena, layout.sched_class, n);
  const auto limits = MutableSlab<double>(*arena, layout.limit, n);
  const auto usage_off = MutableSlab<uint64_t>(*arena, layout.usage_off, n + 1);
  const auto usage = MutableSlab<float>(*arena, layout.usage, samples);
  const auto rich = MutableSlab<float>(
      *arena, layout.rich, rich_enabled_ ? kNumRichColumns * static_cast<uint64_t>(samples) : 0);
  const auto capacities = MutableSlab<double>(*arena, layout.capacity, m);
  const auto peak_off = MutableSlab<uint64_t>(*arena, layout.peak_off, m + 1);
  const auto peaks = MutableSlab<float>(*arena, layout.true_peak, peak_samples);
  const auto csr_off = MutableSlab<uint64_t>(*arena, layout.csr_off, m + 1);
  const auto csr_tasks = MutableSlab<int32_t>(*arena, layout.csr_tasks, csr_entries);

  uint64_t offset = 0;
  for (int32_t i = 0; i < n; ++i) {
    ids[i] = task_id_[i];
    jobs[i] = job_id_[i];
    machines_of[i] = machine_of_[i];
    starts[i] = start_[i];
    classes[i] = static_cast<uint8_t>(sched_class_[i]);
    limits[i] = limit_[i];
    usage_off[i] = offset;
    if (!usage_[i].empty()) {
      std::memcpy(usage.data() + offset, usage_[i].data(), usage_[i].size() * sizeof(float));
    }
    if (rich_enabled_) {
      const uint64_t s = static_cast<uint64_t>(samples);
      for (size_t k = 0; k < rich_[i].size(); ++k) {
        for (int c = 0; c < kNumRichColumns; ++c) {
          rich[c * s + offset + k] = rich_[i][k].*kRichColumnFields[c];
        }
      }
    }
    offset += usage_[i].size();
  }
  usage_off[n] = offset;

  uint64_t peak_offset = 0;
  uint64_t csr_offset = 0;
  for (int machine = 0; machine < m; ++machine) {
    capacities[machine] = capacity_[machine];
    peak_off[machine] = peak_offset;
    if (!true_peak_[machine].empty()) {
      std::memcpy(peaks.data() + peak_offset, true_peak_[machine].data(),
                  true_peak_[machine].size() * sizeof(float));
    }
    peak_offset += true_peak_[machine].size();
    csr_off[machine] = csr_offset;
    if (!machine_tasks_[machine].empty()) {
      std::memcpy(csr_tasks.data() + csr_offset, machine_tasks_[machine].data(),
                  machine_tasks_[machine].size() * sizeof(int32_t));
    }
    csr_offset += machine_tasks_[machine].size();
  }
  peak_off[m] = peak_offset;
  csr_off[m] = csr_offset;

  CellTrace cell = trace_internal::AttachTrace(std::move(name_), num_intervals_, dropped_tasks_,
                                               std::move(arena), n, m, samples, peak_samples,
                                               csr_entries, rich_enabled_);
  Reset("", 0, 0);
  return cell;
}

// Defined here rather than in trace.cc so the sealed-trace translation unit
// stays free of build-state code: filtering reseals through the builder.
void CellTrace::FilterToServingTasks() {
  CellTraceBuilder builder(name, num_intervals, num_machines());
  builder.set_dropped_tasks(dropped_tasks);
  for (int machine = 0; machine < num_machines(); ++machine) {
    builder.set_machine_capacity(machine, machine_capacity(machine));
    const std::span<const float> peak = true_peak(machine);
    builder.mutable_true_peak(machine).assign(peak.begin(), peak.end());
  }
  // Kept tasks are renumbered in task order and re-appended to their
  // machines' lists in that order, exactly like the seed's rebuild.
  for (int32_t index = 0; index < num_tasks(); ++index) {
    const TaskView task = this->task(index);
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
    if (has_rich()) {
      for (Interval k = 0; k < static_cast<Interval>(usage.size()); ++k) {
        builder.AppendRich(copy, task.RichAt(k));
      }
    }
  }
  *this = builder.Seal();
}

}  // namespace crf
