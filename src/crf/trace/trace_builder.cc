#include "crf/trace/trace_builder.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "crf/util/check.h"

namespace crf {

ArenaWriter::ArenaWriter(const TraceColumns& columns) : columns_(columns) {
  const size_t n = columns.task_id.size();
  const int64_t m = static_cast<int64_t>(columns.capacity.size());
  CRF_CHECK_EQ(columns.job_id.size(), n);
  CRF_CHECK_EQ(columns.machine_of.size(), n);
  CRF_CHECK_EQ(columns.start.size(), n);
  CRF_CHECK_EQ(columns.sched_class.size(), n);
  CRF_CHECK_EQ(columns.limit.size(), n);
  CRF_CHECK_EQ(columns.runtime.size(), n);
  CRF_CHECK(columns.peak_length.empty() || columns.peak_length.size() == columns.capacity.size());
  CRF_CHECK_GE(columns.num_intervals, 0);
  CRF_CHECK_GE(columns.dropped_tasks, 0);
  num_rows_ = static_cast<int32_t>(columns.order.size());
  num_machines_ = static_cast<int>(m);
  int32_t previous_machine = 0;
  for (int32_t row = 0; row < num_rows_; ++row) {
    const size_t i = static_cast<uint32_t>(columns.order[row]);
    CRF_CHECK_LT(i, n) << "row " << row << " names no task";
    const int32_t machine = columns.machine_of[i];
    CRF_CHECK_GE(machine, 0) << "task " << i << " has no machine";
    CRF_CHECK_LT(machine, m) << "task " << i << " machine index out of range";
    CRF_CHECK_GE(columns.runtime[i], 0);
    machine_major_ = machine_major_ && machine >= previous_machine;
    previous_machine = machine;
    usage_samples_ += columns.runtime[i];
  }
  peak_samples_ = columns.peak_length.empty() ? m * columns.num_intervals : 0;
  for (const Interval length : columns.peak_length) {
    CRF_CHECK_GE(length, 0);
    peak_samples_ += length;
  }
  layout_ = trace_internal::ComputeArenaLayout(num_rows_, m, usage_samples_, peak_samples_,
                                               num_rows_, columns.rich);
}

void ArenaWriter::WriteColumns(std::byte* arena) {
  arena_ = arena;
  const TraceColumns& c = columns_;
  uint64_t* usage_off = Slab<uint64_t>(layout_.usage_off);
  uint64_t* csr_off = Slab<uint64_t>(layout_.csr_off);
  for (int32_t row = 0; row < num_rows_; ++row) {
    const int32_t i = c.order[row];
    Slab<TaskId>(layout_.task_id)[row] = c.task_id[i];
    Slab<JobId>(layout_.job_id)[row] = c.job_id[i];
    Slab<int32_t>(layout_.machine_of)[row] = c.machine_of[i];
    Slab<Interval>(layout_.start)[row] = c.start[i];
    Slab<uint8_t>(layout_.sched_class)[row] = c.sched_class[i];
    Slab<double>(layout_.limit)[row] = c.limit[i];
    usage_off[row + 1] = usage_off[row] + static_cast<uint64_t>(c.runtime[i]);
    ++csr_off[c.machine_of[i] + 1];
  }
  std::copy(c.capacity.begin(), c.capacity.end(), Slab<double>(layout_.capacity));
  uint64_t* peak_off = Slab<uint64_t>(layout_.peak_off);
  for (int machine = 0; machine < num_machines_; ++machine) {
    peak_off[machine + 1] = peak_off[machine] + static_cast<uint64_t>(
        c.peak_length.empty() ? c.num_intervals : c.peak_length[machine]);
    csr_off[machine + 1] += csr_off[machine];
  }
  // Each machine's rows in row order: a stable counting sort on machine_of.
  std::vector<uint64_t> next(csr_off, csr_off + num_machines_);
  for (int32_t row = 0; row < num_rows_; ++row) {
    const int32_t i = c.order[row];
    Slab<int32_t>(layout_.csr_tasks)[next[c.machine_of[i]]++] = row;
  }
}

void ArenaWriter::WriteColumnsToHeap() {
  heap_ = std::make_shared<trace_internal::TraceArena>(layout_.total_bytes);
  WriteColumns(heap_->bytes);
}

CellTrace ArenaWriter::Seal() {
  CRF_CHECK(heap_ != nullptr) << "only a heap arena seals into a trace";
  return trace_internal::AttachTrace(columns_.name, columns_.num_intervals, columns_.dropped_tasks,
                                     std::move(heap_), num_rows_, num_machines_, usage_samples_,
                                     peak_samples_, num_rows_, columns_.rich);
}

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
  sched_class_.push_back(static_cast<uint8_t>(sched_class));
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
  std::vector<Interval> runtime(n);
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int32_t i = 0; i < n; ++i) {
    if (rich_enabled_) {
      CRF_CHECK_EQ(rich_[i].size(), usage_[i].size())
          << "task " << i << " rich ladder does not match its usage series";
    }
    runtime[i] = static_cast<Interval>(usage_[i].size());
  }
  std::vector<Interval> peak_length(num_machines());
  for (int machine = 0; machine < num_machines(); ++machine) {
    peak_length[machine] = static_cast<Interval>(true_peak_[machine].size());
  }
  ArenaWriter rows({name_, num_intervals_, dropped_tasks_, rich_enabled_, task_id_, job_id_,
                    machine_of_, start_, sched_class_, limit_, runtime, capacity_, peak_length,
                    order});
  rows.WriteColumnsToHeap();
  for (int32_t i = 0; i < n; ++i) {
    std::ranges::copy(usage_[i], rows.usage_row(i).begin());
    for (int c = 0; rich_enabled_ && c < kNumRichColumns; ++c) {
      const std::span<float> column = rows.rich_row(i, static_cast<RichColumn>(c));
      for (size_t k = 0; k < rich_[i].size(); ++k) {
        column[k] = rich_[i][k].*kRichColumnFields[c];
      }
    }
  }
  for (int machine = 0; machine < num_machines(); ++machine) {
    std::ranges::copy(true_peak_[machine], rows.true_peak_row(machine).begin());
  }
  CellTrace cell = rows.Seal();
  Reset("", 0, 0);
  return cell;
}

// Defined here rather than in trace.cc so the sealed-trace translation unit
// stays free of build-state code. Kept tasks are renumbered in task order
// and copied arena to arena; each machine's CSR row lists them in that order.
void CellTrace::FilterToServingTasks() {
  std::vector<int32_t> kept;
  std::vector<Interval> runtime(num_tasks());
  for (int32_t i = 0; i < num_tasks(); ++i) {
    runtime[i] = task(i).runtime();
    if (IsServing(task(i).sched_class())) {
      kept.push_back(i);
    }
  }
  std::vector<Interval> peak_length(num_machines());
  for (int machine = 0; machine < num_machines(); ++machine) {
    peak_length[machine] = static_cast<Interval>(true_peak(machine).size());
  }
  ArenaWriter rows({name, num_intervals, dropped_tasks, has_rich(), task_id_, job_id_, machine_of_,
                    start_, sched_class_, limit_, runtime, capacity_, peak_length, kept});
  rows.WriteColumnsToHeap();
  for (int32_t row = 0; row < rows.num_rows(); ++row) {
    const TaskView source = task(kept[row]);
    std::ranges::copy(source.usage(), rows.usage_row(row).begin());
    for (int c = 0; has_rich() && c < kNumRichColumns; ++c) {
      const auto column = static_cast<RichColumn>(c);
      std::ranges::copy(source.rich_column(column), rows.rich_row(row, column).begin());
    }
  }
  for (int machine = 0; machine < num_machines(); ++machine) {
    std::ranges::copy(true_peak(machine), rows.true_peak_row(machine).begin());
  }
  *this = rows.Seal();
}

}  // namespace crf
