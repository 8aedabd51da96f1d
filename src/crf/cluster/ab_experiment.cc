#include "crf/cluster/ab_experiment.h"

#include <algorithm>
#include <cmath>

#include "crf/core/oracle.h"
#include "crf/risk/risk_accumulator.h"
#include "crf/stats/percentile.h"
#include "crf/util/check.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

// Stride for per-task-interval latency sampling: full resolution would be
// tens of millions of samples with no visible change to the CDF.
constexpr Interval kTaskLatencyStride = 8;

}  // namespace

namespace {

// One machine's post-warmup outcome. Pure in (result, m): safe to shard.
MachineOutcome AnalyzeOneMachine(const ClusterSimResult& result, int m, Interval horizon) {
  const Interval num_intervals = result.trace.num_intervals;
  const Interval warmup = result.warmup;
  const std::vector<double> oracle = ComputePeakOracle(result.trace, m, horizon);
  const double capacity = result.trace.machine_capacity(m);

  MachineOutcome outcome;
  outcome.machine_index = m;

  // Post-warmup intervals scored through the shared crf/risk accounting —
  // the same arithmetic (in the same order) as the hand-rolled loop it
  // replaced, plus the tail metrics.
  RiskAccumulator risk;
  std::vector<double> latency_buffer;
  std::vector<double> util_buffer;
  latency_buffer.reserve(num_intervals - warmup);
  util_buffer.reserve(num_intervals - warmup);
  double util_sum = 0.0;
  for (Interval t = warmup; t < num_intervals; ++t) {
    const double prediction = result.predictions.at(m, t);
    const double limit_sum = result.limit_sum.at(m, t);
    risk.Record(prediction, oracle[t], limit_sum, limit_sum > 0.0);
    latency_buffer.push_back(result.latencies.at(m, t));
    const double util = result.demand_mean.at(m, t) / capacity;
    util_buffer.push_back(util);
    util_sum += util;
  }
  const int64_t evaluated = num_intervals - warmup;
  outcome.violation_rate = static_cast<double>(risk.violations()) / evaluated;
  outcome.mean_violation_severity = risk.severity_sum() / evaluated;
  outcome.tail = risk.TailSummary();
  outcome.p99_latency = Percentile(latency_buffer, 99.0);
  outcome.p90_latency = Percentile(latency_buffer, 90.0);
  outcome.mean_utilization = util_sum / evaluated;
  outcome.p50_utilization = Percentile(util_buffer, 50.0);
  outcome.p99_utilization = Percentile(util_buffer, 99.0);
  return outcome;
}

}  // namespace

std::vector<MachineOutcome> AnalyzeMachines(const ClusterSimResult& result, Interval horizon,
                                            ThreadPool* pool) {
  CRF_CHECK_LT(result.warmup, result.trace.num_intervals);

  // The per-machine peak oracle dominates analysis time; machines are
  // independent, so shard them (each writes only its own outcome slot).
  const int num_machines = result.trace.num_machines();
  std::vector<MachineOutcome> outcomes(num_machines);
  (pool != nullptr ? *pool : ThreadPool::Default()).ParallelFor(num_machines, [&](int m) {
    outcomes[m] = AnalyzeOneMachine(result, m, horizon);
  });
  return outcomes;
}

GroupMetrics ComputeGroupMetrics(const std::string& label,
                                 std::span<const ClusterSimResult> results, Interval horizon,
                                 ThreadPool* pool) {
  GroupMetrics metrics;
  metrics.label = label;

  for (const ClusterSimResult& result : results) {
    for (const MachineOutcome& outcome : AnalyzeMachines(result, horizon, pool)) {
      metrics.violation_rate.Add(outcome.violation_rate);
      metrics.violation_severity.Add(outcome.mean_violation_severity);
      metrics.severity_p999.Add(outcome.tail.severity_p999);
      metrics.max_violation_streak.Add(static_cast<double>(outcome.tail.max_violation_streak));
      metrics.machine_p90_latency.Add(outcome.p90_latency);
      metrics.machine_p50_utilization.Add(outcome.p50_utilization);
      metrics.machine_mean_utilization.Add(outcome.mean_utilization);
      metrics.machine_p99_utilization.Add(outcome.p99_utilization);
    }

    const Interval num_intervals = result.trace.num_intervals;
    const int num_machines = result.trace.num_machines();
    const double total_capacity = result.trace.TotalCapacity();
    CRF_CHECK_GT(total_capacity, 0.0);

    // Resident-task counts per machine-interval for latency weighting.
    std::vector<std::vector<int32_t>> resident(num_machines);
    for (int m = 0; m < num_machines; ++m) {
      resident[m] = result.trace.MachineResidentCount(m);
    }

    for (Interval t = result.warmup; t < num_intervals; ++t) {
      double limit_sum = 0.0;
      double prediction_sum = 0.0;
      double usage_sum = 0.0;
      // Interval rows are contiguous in the flat series: these sums stream.
      const auto limit_row = result.limit_sum.IntervalRow(t);
      const auto prediction_row = result.predictions.IntervalRow(t);
      const auto usage_row = result.demand_mean.IntervalRow(t);
      for (int m = 0; m < num_machines; ++m) {
        limit_sum += limit_row[m];
        prediction_sum += prediction_row[m];
        usage_sum += usage_row[m];
      }
      if (limit_sum > 0.0) {
        metrics.relative_savings.Add((limit_sum - prediction_sum) / limit_sum);
      }
      metrics.normalized_allocation.Add(limit_sum / total_capacity);
      metrics.normalized_workload.Add(usage_sum / total_capacity);

      if ((t - result.warmup) % kTaskLatencyStride == 0) {
        for (int m = 0; m < num_machines; ++m) {
          // One latency sample per resident task: tasks on one machine share
          // its CPU scheduler.
          for (int32_t k = 0; k < resident[m][t]; ++k) {
            metrics.task_latency.Add(result.latencies.at(m, t));
          }
        }
      }
    }

    metrics.tasks_placed += result.tasks_placed;
    metrics.tasks_timed_out += result.tasks_timed_out;
  }
  return metrics;
}

AbExperimentResult RunAbExperiment(std::span<const CellProfile> profiles,
                                   const PredictorSpec& control_spec,
                                   const PredictorSpec& experiment_spec,
                                   const ClusterSimOptions& base_options, const Rng& rng) {
  std::vector<ClusterSimResult> control_results;
  std::vector<ClusterSimResult> experiment_results;
  control_results.reserve(profiles.size());
  experiment_results.reserve(profiles.size());

  for (size_t i = 0; i < profiles.size(); ++i) {
    const Rng cell_rng = rng.Fork(0xab000000 + i);
    ClusterSimOptions options = base_options;
    options.predictor = control_spec;
    control_results.push_back(RunClusterSim(profiles[i], options, cell_rng));
    options.predictor = experiment_spec;
    experiment_results.push_back(RunClusterSim(profiles[i], options, cell_rng));
  }

  AbExperimentResult result;
  result.control =
      ComputeGroupMetrics("control", control_results, kIntervalsPerDay, base_options.pool);
  result.experiment =
      ComputeGroupMetrics("exp", experiment_results, kIntervalsPerDay, base_options.pool);
  return result;
}

}  // namespace crf
