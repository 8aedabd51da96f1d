// cluster-ab: the paired Section 6 A/B through the closed-loop cluster sim.
//
// RunClusterSim runs a 1024-machine cell for 2 days (1-day warm-up) twice
// from one seed, control borg-default:0.9 and experiment
// max(n-sigma:3,rc-like:80), on a 4-thread pool with the default placement
// engine; ComputeGroupMetrics then analyses each arm. This is the only
// workload where placement (the cluster scheduler and the index treap) works
// under pressure. The determinism contract is checked on a reduced cell from
// the same seed: a 1-thread run must reproduce the 4-thread run byte for
// byte.

#include <cstdio>
#include <cstring>

#include "crf/cluster/ab_experiment.h"
#include "crf/core/spec_parser.h"
#include "crf/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMachines = 1024;
constexpr int kReducedMachines = 128;
constexpr uint64_t kCellTag = 0x636c7573;

bool SameSeries(const crf::MachineIntervalSeries& a, const crf::MachineIntervalSeries& b) {
  if (a.num_machines() != b.num_machines() || a.num_intervals() != b.num_intervals()) {
    return false;
  }
  for (crf::Interval t = 0; t < a.num_intervals(); ++t) {
    const std::span<const float> x = a.IntervalRow(t);
    const std::span<const float> y = b.IntervalRow(t);
    if (std::memcmp(x.data(), y.data(), x.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

bool SameRun(const crf::ClusterSimResult& a, const crf::ClusterSimResult& b) {
  return SameSeries(a.predictions, b.predictions) && SameSeries(a.latencies, b.latencies) &&
         SameSeries(a.demand_mean, b.demand_mean) && SameSeries(a.limit_sum, b.limit_sum) &&
         a.tasks_placed == b.tasks_placed && a.tasks_timed_out == b.tasks_timed_out &&
         a.pending_task_intervals == b.pending_task_intervals &&
         a.placement_attempts == b.placement_attempts &&
         a.trace.num_tasks() == b.trace.num_tasks();
}

double MachineSteps(const crf::CellProfile& profile, const crf::ClusterSimOptions& options) {
  return static_cast<double>(profile.num_machines) * static_cast<double>(options.num_intervals);
}

struct Arm {
  const char* name;
  crf::ClusterSimOptions options;
  crf::ClusterSimResult result;
  crf::GroupMetrics metrics;
  double sim_s = 0.0;
};

}  // namespace

void RunClusterAb(const RunConfig& config, bool traced, Report& report) {
  // Set-up: the cell profiles, both parsed specs and a warm-up A/B on the
  // reduced cell, which fills the allocator and wakes the pool; without it
  // the first timed pass ran 5-12% slower than the rest. As in the other
  // workloads, the pools are built before it.
  crf::ThreadPool pool(4);
  crf::ThreadPool serial(1);
  const crf::Rng rng = crf::Rng(config.seed).Fork(kCellTag);
  crf::CellProfile profile;
  crf::CellProfile reduced;
  Arm experiment{"experiment", {}, {}, {}, 0.0};
  Arm control{"control", {}, {}, {}, 0.0};
  std::vector<double> setup_s;
  for (int i = 0; i < config.setup_repeats; ++i) {
    const auto start = Clock::now();
    profile = crf::SimCellProfile('a');
    profile.num_machines = kMachines;
    reduced = profile;
    reduced.num_machines = kReducedMachines;
    for (Arm* arm : {&experiment, &control}) {
      const char* text = arm == &experiment ? "max(n-sigma:3,rc-like:80)" : "borg-default:0.9";
      arm->options.predictor = *crf::ParsePredictorSpec(text);
      arm->options.num_intervals = 2 * crf::kIntervalsPerDay;
      arm->options.warmup = crf::kIntervalsPerDay;
      arm->options.pool = &pool;
      crf::RunClusterSim(reduced, arm->options, rng);
    }
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<double> rate, analysis_s;
  RepeatFor(config.seconds, config.min_passes, [&] {
    const auto start = Clock::now();
    for (Arm* arm : {&experiment, &control}) {
      const auto arm_start = Clock::now();
      arm->result = crf::RunClusterSim(profile, arm->options, rng);
      arm->sim_s = SecondsSince(arm_start);
    }
    const auto analysis_start = Clock::now();
    for (Arm* arm : {&experiment, &control}) {
      arm->metrics = crf::ComputeGroupMetrics(
          arm->name, std::span<const crf::ClusterSimResult>(&arm->result, 1));
    }
    analysis_s.push_back(SecondsSince(analysis_start));
    rate.push_back((MachineSteps(profile, experiment.options) +
                    MachineSteps(profile, control.options)) /
                   SecondsSince(start));
    std::printf("pass %zu: %.6g machine steps/s\n", rate.size() - 1, rate.back());
    return true;
  });

  // The determinism contract, checked once per run after the timed passes:
  // the reduced cell on one thread must reproduce it on four.
  const auto parallel_start = Clock::now();
  const crf::ClusterSimResult reduced_parallel =
      crf::RunClusterSim(reduced, experiment.options, rng);
  const double parallel_s = SecondsSince(parallel_start);
  crf::ClusterSimOptions serial_options = experiment.options;
  serial_options.pool = &serial;
  const auto serial_start = Clock::now();
  const crf::ClusterSimResult reduced_serial = crf::RunClusterSim(reduced, serial_options, rng);
  const double serial_s = SecondsSince(serial_start);
  report.Check(SameRun(reduced_serial, reduced_parallel),
               std::to_string(kReducedMachines) +
                   "-machine cell byte-identical on 1 and 4 threads");

  report.Add("setup_s", Median(setup_s), "s",
             "cell profiles, spec parsing and a warm-up A/B on the reduced cell (median)");
  report.Add("throughput_per_s", Median(rate), "1/s",
             "machine steps/s: 2 arms x 1024 machines x 576 intervals over sims + analysis");
  if (!traced) {
    return;
  }

  report.Add("cluster.experiment_sim_s", experiment.sim_s, "s", "RunClusterSim, experiment arm");
  report.Add("cluster.control_sim_s", control.sim_s, "s", "RunClusterSim, control arm");
  report.Add("cluster.analysis_s", analysis_s.back(), "s", "ComputeGroupMetrics, both arms");
  report.Add("cluster.parallel_reduced_sim_s", parallel_s, "s",
             "RunClusterSim, 128-machine experiment cell on the 4-thread pool");
  report.Add("cluster.serial_reduced_sim_s", serial_s, "s",
             "RunClusterSim, 128-machine experiment cell on a 1-thread pool");
  for (const Arm* arm : {&experiment, &control}) {
    const std::string prefix = std::string("cluster.") + arm->name + ".";
    const crf::ClusterSimResult& r = arm->result;
    report.Add(prefix + "placement_attempts", static_cast<double>(r.placement_attempts),
               "count", "Scheduler::Place calls, retries included");
    report.Add(prefix + "tasks_placed", static_cast<double>(r.tasks_placed), "count");
    report.Add(prefix + "placement_success_ratio",
               static_cast<double>(r.tasks_placed) / static_cast<double>(r.placement_attempts),
               "ratio", "tasks placed over placement attempts");
    report.Add(prefix + "tasks_timed_out", static_cast<double>(r.tasks_timed_out), "count");
    report.Add(prefix + "pending_task_intervals", static_cast<double>(r.pending_task_intervals),
               "count", "sum over intervals of the pending queue length");
    report.Add(prefix + "latency_p90_median", arm->metrics.machine_p90_latency.Quantile(0.5),
               "model", "median over machines of the p90 CPU scheduling latency");
  }
  report.Add("cluster.exp_savings_p50", experiment.metrics.relative_savings.Quantile(0.5),
             "ratio", "experiment arm: median over intervals of relative savings");
  report.Add("cluster.exp_violation_rate_p90", experiment.metrics.violation_rate.Quantile(0.9),
             "ratio", "experiment arm: p90 over machines of the violation rate");
  report.Add("cluster.control_savings_p50", control.metrics.relative_savings.Quantile(0.5),
             "ratio", "control arm: median over intervals of relative savings");
  report.Add("cluster.control_violation_rate_p90", control.metrics.violation_rate.Quantile(0.9),
             "ratio", "control arm: p90 over machines of the violation rate");
}

}  // namespace perfbench
