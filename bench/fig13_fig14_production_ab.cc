// Figures 13 and 14: the production A/B experiment (Section 6).
//
// Paired cluster simulations over the five production-like cells: the
// control group runs the tuned borg-default predictor (phi=0.9); the
// experimental group runs the deployed max predictor, max(n-sigma(3),
// rc-like(p80)) with 2h warm-up and 10h history. Both groups see the same
// arrival streams (same seeds).
//
// Fig 13: (a) violation rate, (b) violation severity, (c) relative savings,
//         (d) total allocations / capacity, (e) total workload / capacity.
// Fig 14: (a) per-task CPU scheduling latency, (b) per-machine p90 latency,
//         (c) median, (d) mean, (e) p99 machine utilization.
//
// Expected shape (paper): exp saves >16% vs control ~10-12%; exp hosts ~2%
// more allocated limit and ~6% more used CPU; exp latency is equal or
// better, with its *hottest* machines less utilized (better load balance).

#include <cstdio>

#include "bench_common.h"
#include "crf/cluster/ab_experiment.h"

namespace {

using namespace crf;        // NOLINT
using namespace crf::bench; // NOLINT

int Main() {
  const Context ctx = Init("fig13_fig14_production_ab",
                           "Figs 13-14: production A/B, borg-default vs max predictor");

  ClusterSimOptions options;
  // The paper runs 32 days; two weeks keeps the default bench under a
  // minute while covering many diurnal cycles (REPRO_SCALE grows machines).
  options.num_intervals = 2 * kIntervalsPerWeek;
  options.warmup = 2 * kIntervalsPerDay;

  std::vector<CellProfile> profiles;
  for (int i = 1; i <= 5; ++i) {
    CellProfile profile = ProductionCellProfile(i);
    profile.num_machines = ScaledCount(profile.num_machines);
    // Mild demand pressure: the paper's cells are not saturated — the extra
    // capacity overcommit frees shows up mostly as savings, and only invites
    // a few percent more workload (Fig 13(d)(e)).
    profile.tasks_per_machine *= 0.72;
    profiles.push_back(profile);
  }

  // The deployed configuration is max(n-sigma(3), rc-like(p80)) (Section
  // 6.1). The paper tuned those knobs so the max predictor matches
  // borg-default's production risk profile; our synthetic workload has more
  // short-horizon variance than Google's, so the matching configuration here
  // is n = 2 (see EXPERIMENTS.md for the calibration note).
  const AbExperimentResult ab =
      RunAbExperiment(profiles, BorgDefaultSpec(0.9),
                      MaxSpec({NSigmaSpec(2.0), RcLikeSpec(80.0)}), options,
                      ctx.rng().Fork(0xab));

  auto pair = [&](const Ecdf& control,
                  const Ecdf& exp) -> std::vector<std::pair<std::string, const Ecdf*>> {
    return {{"control", &control}, {"exp", &exp}};
  };

  ReportCdfs(ctx, "Fig 13(a): per-machine violation rate",
             pair(ab.control.violation_rate, ab.experiment.violation_rate),
             "fig13a_violation_rate.csv");
  ReportCdfs(ctx, "Fig 13(b): violation severity",
             pair(ab.control.violation_severity, ab.experiment.violation_severity),
             "fig13b_violation_severity.csv");
  // Tail companions to Fig 13(b): the per-machine p999 severity and longest
  // violation streak (crf/risk). A mean-vs-tail ranking flip between control
  // and exp shows up as the curves crossing here but not in 13(b).
  ReportCdfs(ctx, "Fig 13(b'): violation severity p999 (per machine)",
             pair(ab.control.severity_p999, ab.experiment.severity_p999),
             "fig13b_severity_p999.csv");
  ReportCdfs(ctx, "Fig 13(b''): max violation streak (intervals, per machine)",
             pair(ab.control.max_violation_streak, ab.experiment.max_violation_streak),
             "fig13b_max_streak.csv");
  ReportCdfs(ctx, "Fig 13(c): relative savings (per interval)",
             pair(ab.control.relative_savings, ab.experiment.relative_savings),
             "fig13c_savings.csv");
  ReportCdfs(ctx, "Fig 13(d): normalized allocations (limit / capacity)",
             pair(ab.control.normalized_allocation, ab.experiment.normalized_allocation),
             "fig13d_allocations.csv");
  ReportCdfs(ctx, "Fig 13(e): normalized workload (usage / capacity)",
             pair(ab.control.normalized_workload, ab.experiment.normalized_workload),
             "fig13e_workload.csv");

  // Fig 14(a,b): latency, normalized to the control group's p99.9.
  const double norm = ab.control.task_latency.Quantile(0.999);
  auto normalized = [norm](const Ecdf& cdf) {
    Ecdf out;
    for (const double v : cdf.sorted_samples()) {
      out.Add(v / norm);
    }
    return out;
  };
  const Ecdf control_task_latency = normalized(ab.control.task_latency);
  const Ecdf exp_task_latency = normalized(ab.experiment.task_latency);
  const Ecdf control_p90 = normalized(ab.control.machine_p90_latency);
  const Ecdf exp_p90 = normalized(ab.experiment.machine_p90_latency);

  ReportCdfs(ctx, "Fig 14(a): per-task CPU scheduling latency (normalized)",
             pair(control_task_latency, exp_task_latency), "fig14a_task_latency.csv");
  ReportCdfs(ctx, "Fig 14(b): per-machine p90 CPU scheduling latency (normalized)",
             pair(control_p90, exp_p90), "fig14b_machine_latency.csv");
  ReportCdfs(ctx, "Fig 14(c): per-machine median utilization",
             pair(ab.control.machine_p50_utilization, ab.experiment.machine_p50_utilization),
             "fig14c_median_util.csv");
  ReportCdfs(ctx, "Fig 14(d): per-machine mean utilization",
             pair(ab.control.machine_mean_utilization, ab.experiment.machine_mean_utilization),
             "fig14d_mean_util.csv");
  ReportCdfs(ctx, "Fig 14(e): per-machine p99 utilization",
             pair(ab.control.machine_p99_utilization, ab.experiment.machine_p99_utilization),
             "fig14e_p99_util.csv");

  Table summary({"metric", "control", "exp", "paper control", "paper exp"});
  summary.AddRow("median relative savings",
                 {ab.control.relative_savings.Quantile(0.5),
                  ab.experiment.relative_savings.Quantile(0.5), 0.11, 0.165});
  summary.AddRow("median allocations/capacity",
                 {ab.control.normalized_allocation.Quantile(0.5),
                  ab.experiment.normalized_allocation.Quantile(0.5), 0.88, 0.90});
  summary.AddRow("median workload/capacity",
                 {ab.control.normalized_workload.Quantile(0.5),
                  ab.experiment.normalized_workload.Quantile(0.5), 0.49, 0.52});
  summary.AddRow("p90 task latency (norm)",
                 {control_task_latency.Quantile(0.9), exp_task_latency.Quantile(0.9), 1.0,
                  0.95});
  summary.AddRow("median machine mean-util",
                 {ab.control.machine_mean_utilization.Quantile(0.5),
                  ab.experiment.machine_mean_utilization.Quantile(0.5), 0.45, 0.46});
  summary.AddRow("p99-util of hottest machines (p90 over machines)",
                 {ab.control.machine_p99_utilization.Quantile(0.9),
                  ab.experiment.machine_p99_utilization.Quantile(0.9), 0.82, 0.80});
  std::printf("\nA/B summary (paper values approximate, read from figures)\n");
  summary.Print();
  std::printf("\ntasks placed: control %lld (timed out %lld), exp %lld (timed out %lld)\n",
              static_cast<long long>(ab.control.tasks_placed),
              static_cast<long long>(ab.control.tasks_timed_out),
              static_cast<long long>(ab.experiment.tasks_placed),
              static_cast<long long>(ab.experiment.tasks_timed_out));
  return 0;
}

}  // namespace

int main() { return Main(); }
