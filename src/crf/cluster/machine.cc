#include "crf/cluster/machine.h"

#include <algorithm>

#include "crf/util/check.h"

namespace crf {

ClusterMachine::ClusterMachine(int machine_index, double capacity, const SweepPlan& plan,
                               const Rng& rng)
    : machine_index_(machine_index),
      capacity_(capacity),
      latency_model_(LatencyModelParams{}, rng.Fork(0x6c6174)),  // "lat"
      usage_rng_(rng.Fork(0x757367)) {                            // "usg"
  CRF_CHECK_GT(capacity, 0.0);
  CRF_CHECK_EQ(plan.num_specs(), 1);
  bank_.Attach(&plan);
}

void ClusterMachine::StartTask(CellTraceBuilder& trace, int32_t trace_index,
                               const TaskUsageParams& params, Interval now, Interval runtime) {
  CRF_CHECK_GE(trace_index, 0);
  CRF_CHECK_LT(trace_index, trace.num_tasks());
  CRF_CHECK_GT(runtime, 0);
  CRF_CHECK_EQ(trace.task_machine(trace_index), machine_index_);
  CRF_CHECK_EQ(trace.task_start(trace_index), now);
  trace.ReserveUsage(trace_index, runtime);
  usage_.Admit(trace_index, now + runtime,
               TaskUsageModel(params, now,
                              usage_rng_.Fork(static_cast<uint64_t>(trace.task_id(trace_index)))));
}

ClusterMachine::StepStats ClusterMachine::Step(Interval now, double shared_load,
                                               CellTraceBuilder& trace) {
  usage_.Retire(now);
  StepStats stats;
  stats.resident_tasks = usage_.size();
  samples_scratch_.clear();
  stats.demand_peak =
      usage_.Step(shared_load, /*rich=*/false, [&](int32_t row, float p90, const RichUsage*) {
        trace.AppendUsage(row, p90);
        const double limit = trace.task_limit(row);
        stats.usage_sum += p90;
        stats.limit_sum += limit;
        samples_scratch_.push_back({trace.task_id(row), p90, limit});
      });

  for (const double s : usage_.sums()) {
    stats.demand_mean += s;
  }
  stats.demand_mean /= kSubSamplesPerInterval;
  std::vector<float>& true_peak = trace.mutable_true_peak(machine_index_);
  if (static_cast<size_t>(now) < true_peak.size()) {
    true_peak[now] = static_cast<float>(stats.demand_peak);
  }

  stats.latency = latency_model_.Sample(stats.demand_mean, stats.demand_peak, capacity_);

  bank_.Observe(now, samples_scratch_);
  stats.prediction = bank_.Predictions()[0];
  stats.free_capacity = std::max(0.0, capacity_ - stats.prediction);
  return stats;
}

}  // namespace crf
