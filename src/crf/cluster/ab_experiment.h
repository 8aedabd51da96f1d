// Analysis of online cluster simulations: per-machine violation/latency
// correlation (paper Section 3.3, Fig 3) and the control-vs-experiment A/B
// comparison (Section 6, Figs 13-14).
//
// The A/B design is paired: for each cell profile the simulation runs twice
// from the same seed — once with the control predictor (tuned borg-default)
// and once with the experimental one (max predictor) — so both groups see
// statistically identical workloads, like the paper's random machine split.

#ifndef CRF_CLUSTER_AB_EXPERIMENT_H_
#define CRF_CLUSTER_AB_EXPERIMENT_H_

#include <span>
#include <string>
#include <vector>

#include "crf/cluster/cell_sim.h"
#include "crf/risk/risk_accumulator.h"
#include "crf/stats/ecdf.h"
#include "crf/util/time_grid.h"

namespace crf {

// Per-machine outcome of one cluster simulation: the Fig 3(d) scatter.
struct MachineOutcome {
  int machine_index = -1;
  double violation_rate = 0.0;
  double mean_violation_severity = 0.0;
  // Post-warmup tail metrics (crf/risk): severity p99/p999, violation
  // streaks, time-weighted violation fraction, savings-at-risk.
  RiskTailSummary tail;
  double p99_latency = 0.0;
  double p90_latency = 0.0;
  double mean_utilization = 0.0;
  double p50_utilization = 0.0;
  double p99_utilization = 0.0;
};

// Computes per-machine outcomes from the as-executed trace (post-warmup):
// oracle violations of the published predictions, latency tails, and
// utilization statistics. Machines run on `pool` (nullptr:
// ThreadPool::Default()); the outcomes never depend on it.
std::vector<MachineOutcome> AnalyzeMachines(const ClusterSimResult& result,
                                            Interval horizon = kIntervalsPerDay,
                                            ThreadPool* pool = nullptr);

// Group-level metric distributions for the Fig 13/14 plots. Any ECDF may be
// empty, so check empty() before Quantile(): relative_savings gets no sample
// when no post-warmup interval has a resident limit (a run that places no
// task), task_latency none when no sampled interval has a resident task, and
// every ECDF stays empty for an empty group.
struct GroupMetrics {
  std::string label;
  // Per machine (post-warmup).
  Ecdf violation_rate;
  Ecdf violation_severity;
  // Tail distributions (crf/risk): the per-machine p999 severity and the
  // longest violation streak — mean-vs-tail ranking flips show up here.
  Ecdf severity_p999;
  Ecdf max_violation_streak;
  Ecdf machine_p90_latency;
  Ecdf machine_p50_utilization;
  Ecdf machine_mean_utilization;
  Ecdf machine_p99_utilization;
  // Per interval, over the whole group.
  Ecdf relative_savings;        // (sum L - sum P) / sum L
  Ecdf normalized_allocation;   // sum L / total capacity
  Ecdf normalized_workload;     // sum usage / total capacity
  // Per task-interval (machine latency weighted by resident tasks).
  Ecdf task_latency;

  int64_t tasks_placed = 0;
  int64_t tasks_timed_out = 0;
};

// Aggregates one group's cluster results (one entry per cell), analysing
// machines on `pool` as AnalyzeMachines does.
GroupMetrics ComputeGroupMetrics(const std::string& label,
                                 std::span<const ClusterSimResult> results,
                                 Interval horizon = kIntervalsPerDay,
                                 ThreadPool* pool = nullptr);

struct AbExperimentResult {
  GroupMetrics control;
  GroupMetrics experiment;
};

// Runs the paired A/B experiment over the given cell profiles. Simulation and
// analysis both run on `base_options.pool` (nullptr: ThreadPool::Default()).
AbExperimentResult RunAbExperiment(std::span<const CellProfile> profiles,
                                   const PredictorSpec& control_spec,
                                   const PredictorSpec& experiment_spec,
                                   const ClusterSimOptions& base_options, const Rng& rng);

}  // namespace crf

#endif  // CRF_CLUSTER_AB_EXPERIMENT_H_
