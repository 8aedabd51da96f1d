#include "crf/cluster/machine.h"

#include <gtest/gtest.h>

#include "crf/core/sweep_bank.h"
#include "crf/trace/trace_builder.h"

namespace crf {
namespace {

CellTraceBuilder EmptyBuilder(int num_machines, Interval num_intervals) {
  CellTraceBuilder builder("machine_test", num_intervals, num_machines);
  for (int m = 0; m < num_machines; ++m) {
    builder.set_machine_capacity(m, 1.0);
    builder.mutable_true_peak(m).assign(static_cast<size_t>(num_intervals), 0.0f);
  }
  return builder;
}

int32_t AddTask(CellTraceBuilder& trace, TaskId id, int machine, Interval start,
                double limit) {
  return trace.AddTask(id, id, machine, start, limit, SchedulingClass::kLatencySensitive);
}

// The one-spec plan every machine below runs; it outlives them all.
const SweepPlan& LimitSumPlan() {
  static const PredictorSpec spec = LimitSumSpec();
  static const SweepPlan plan(std::span(&spec, 1));
  return plan;
}

TaskUsageParams CalmParams(double limit) {
  TaskUsageParams params;
  params.limit = limit;
  params.mean_ratio = 0.5;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.02;
  params.spike_prob = 0.0;
  return params;
}

TEST(ClusterMachineTest, EmptyMachinePredictsZero) {
  CellTraceBuilder trace = EmptyBuilder(1, 10);
  ClusterMachine machine(0, 1.0, LimitSumPlan(), Rng(1));
  const auto stats = machine.Step(0, 1.0, trace);
  EXPECT_EQ(stats.resident_tasks, 0);
  EXPECT_DOUBLE_EQ(stats.prediction, 0.0);
  EXPECT_DOUBLE_EQ(stats.free_capacity, 1.0);
  EXPECT_GT(stats.latency, 0.0);
}

TEST(ClusterMachineTest, TaskLifecycleRecordsUsage) {
  CellTraceBuilder trace = EmptyBuilder(1, 10);
  ClusterMachine machine(0, 1.0, LimitSumPlan(), Rng(2));
  const int32_t index = AddTask(trace, 1, 0, 2, 0.4);
  machine.StartTask(trace, index, CalmParams(0.4), 2, 3);

  for (Interval t = 2; t < 10; ++t) {
    machine.Step(t, 1.0, trace);
  }
  EXPECT_EQ(trace.task_usage(index).size(), 3u);
  EXPECT_EQ(trace.task_end(index), 5);
  for (const float u : trace.task_usage(index)) {
    EXPECT_GT(u, 0.0f);
    EXPECT_LE(u, 0.4f);
  }
  // Machine task index registered at AddTask time.
  ASSERT_EQ(trace.machine_tasks(0).size(), 1u);
  EXPECT_EQ(trace.machine_tasks(0)[0], index);
}

TEST(ClusterMachineTest, FreeCapacityIsCapacityMinusPrediction) {
  CellTraceBuilder trace = EmptyBuilder(1, 20);
  ClusterMachine machine(0, 1.0, LimitSumPlan(), Rng(3));
  const int32_t index = AddTask(trace, 1, 0, 0, 0.3);
  machine.StartTask(trace, index, CalmParams(0.3), 0, 20);
  const auto stats = machine.Step(0, 1.0, trace);
  EXPECT_DOUBLE_EQ(stats.prediction, 0.3);  // limit-sum
  EXPECT_DOUBLE_EQ(stats.free_capacity, 0.7);
}

TEST(ClusterMachineTest, DemandAggregatesTasks) {
  CellTraceBuilder trace = EmptyBuilder(1, 10);
  ClusterMachine machine(0, 1.0, LimitSumPlan(), Rng(4));
  const int32_t a = AddTask(trace, 1, 0, 0, 0.4);
  const int32_t b = AddTask(trace, 2, 0, 0, 0.4);
  machine.StartTask(trace, a, CalmParams(0.4), 0, 10);
  machine.StartTask(trace, b, CalmParams(0.4), 0, 10);
  const auto stats = machine.Step(0, 1.0, trace);
  EXPECT_EQ(stats.resident_tasks, 2);
  EXPECT_GT(stats.demand_mean, 0.2);
  EXPECT_GE(stats.demand_peak, stats.demand_mean);
  EXPECT_DOUBLE_EQ(stats.limit_sum, 0.8);
  EXPECT_GT(trace.mutable_true_peak(0)[0], 0.0f);
}

TEST(ClusterMachineTest, SealedTraceCarriesRecordedUsage) {
  CellTraceBuilder trace = EmptyBuilder(1, 10);
  ClusterMachine machine(0, 1.0, LimitSumPlan(), Rng(6));
  const int32_t index = AddTask(trace, 1, 0, 0, 0.5);
  machine.StartTask(trace, index, CalmParams(0.5), 0, 4);
  for (Interval t = 0; t < 10; ++t) {
    machine.Step(t, 1.0, trace);
  }
  const CellTrace cell = trace.Seal();
  ASSERT_EQ(cell.num_tasks(), 1);
  const TaskView task = cell.task(0);
  EXPECT_EQ(task.runtime(), 4);
  EXPECT_EQ(task.end(), 4);
  for (const float u : task.usage()) {
    EXPECT_GT(u, 0.0f);
  }
  EXPECT_GT(cell.true_peak(0)[0], 0.0f);
}

TEST(ClusterMachineDeathTest, StartTaskValidatesInvariants) {
  CellTraceBuilder trace = EmptyBuilder(2, 10);
  ClusterMachine machine(0, 1.0, LimitSumPlan(), Rng(5));
  // Wrong machine index on the task.
  const int32_t index = AddTask(trace, 1, 1, 0, 0.3);
  EXPECT_DEATH(machine.StartTask(trace, index, CalmParams(0.3), 0, 5), "CHECK failed");
}

}  // namespace
}  // namespace crf
