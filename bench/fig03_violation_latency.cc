// Figure 3: the violation-rate / CPU-scheduling-latency link that justifies
// evaluating overcommit policies offline (Section 3.3). Five production-like
// cells run the borg-default predictor in the closed-loop cluster simulator
// for two weeks:
//   (a) per-machine oracle violation rate CDF per cell;
//   (b) per-task CPU scheduling latency CDF per cell (normalized);
//   (c) per-cell utilization CDF;
//   (d) 99%ile CPU scheduling latency vs violation rate, machines bucketed
//       by violation rate (width 0.005), with Spearman correlations and the
//       fitted slope (paper: 0.42 raw / 0.95 bucketed, slope ~14).

#include <cstdio>

#include "bench_common.h"
#include "crf/cluster/ab_experiment.h"
#include "crf/stats/correlation.h"
#include "crf/stats/histogram.h"
#include "crf/util/csv.h"

#include <algorithm>

namespace {

using namespace crf;        // NOLINT
using namespace crf::bench; // NOLINT

int Main() {
  const Context ctx =
      Init("fig03_violation_latency", "Fig 3: violation rate vs CPU scheduling latency");

  ClusterSimOptions options;
  options.num_intervals = 2 * kIntervalsPerWeek;
  options.warmup = 2 * kIntervalsPerDay;
  options.predictor = BorgDefaultSpec(0.9);

  std::vector<Ecdf> violation_cdfs;
  std::vector<Ecdf> latency_cdfs;
  std::vector<Ecdf> utilization_cdfs;
  std::vector<double> all_rates;
  std::vector<double> all_p99;

  for (int i = 1; i <= 5; ++i) {
    CellProfile profile = ProductionCellProfile(i);
    profile.num_machines = ScaledCount(profile.num_machines);
    const ClusterSimResult result = RunClusterSim(profile, options, ctx.rng().Fork(i));
    const std::vector<MachineOutcome> outcomes = AnalyzeMachines(result);

    Ecdf violation;
    Ecdf latency;
    for (const MachineOutcome& o : outcomes) {
      violation.Add(o.violation_rate);
      all_rates.push_back(o.violation_rate);
      all_p99.push_back(o.p99_latency);
    }
    // Per-task latency samples: machine latency weighted by resident tasks.
    // The streaming cursor walks each machine once with no per-machine
    // series allocation.
    MachineSeriesCursor resident(result.trace);
    for (int m = 0; m < result.trace.num_machines(); ++m) {
      resident.Reset(m);
      while (resident.Next()) {
        const Interval t = resident.interval();
        if (t < result.warmup || (t - result.warmup) % 8 != 0) {
          continue;
        }
        for (int32_t k = 0; k < resident.resident(); k += 4) {
          latency.Add(result.latencies.at(m, t));
        }
      }
    }
    // Cell-level utilization over intervals.
    Ecdf utilization;
    const double capacity = result.trace.TotalCapacity();
    for (Interval t = result.warmup; t < result.trace.num_intervals; ++t) {
      double usage = 0.0;
      for (const float u : result.demand_mean.IntervalRow(t)) {
        usage += u;
      }
      utilization.Add(usage / capacity);
    }
    std::printf("cell %d: %zu machines, placed %lld tasks, mean violation rate %.4f\n", i,
                static_cast<size_t>(result.trace.num_machines()), static_cast<long long>(result.tasks_placed),
                violation.mean());
    violation_cdfs.push_back(std::move(violation));
    latency_cdfs.push_back(std::move(latency));
    utilization_cdfs.push_back(std::move(utilization));
  }

  // Normalize latency CDFs to a common constant (the max observed p99.9).
  double norm = 0.0;
  for (const Ecdf& cdf : latency_cdfs) {
    norm = std::max(norm, cdf.Quantile(0.999));
  }
  std::vector<Ecdf> latency_normalized;
  for (Ecdf& cdf : latency_cdfs) {
    Ecdf scaled;
    for (const double v : cdf.sorted_samples()) {
      scaled.Add(v / norm);
    }
    latency_normalized.push_back(std::move(scaled));
  }

  auto report = [&ctx](const std::string& title, const std::vector<Ecdf>& cdfs,
                       const std::string& csv) {
    std::vector<std::pair<std::string, const Ecdf*>> series;
    for (size_t i = 0; i < cdfs.size(); ++i) {
      series.emplace_back("production cell " + std::to_string(i + 1), &cdfs[i]);
    }
    ReportCdfs(ctx, title, series, csv);
  };
  report("Fig 3(a): per-machine violation rate", violation_cdfs, "fig03a_violation_rate.csv");
  report("Fig 3(b): per-task CPU scheduling latency (normalized)", latency_normalized,
         "fig03b_latency.csv");
  report("Fig 3(c): cell utilization", utilization_cdfs, "fig03c_utilization.csv");

  // (d): bucketed correlation. Normalize p99 latency by the mean latency of
  // machines with zero violations, as in the paper.
  double zero_violation_latency = 0.0;
  int zero_count = 0;
  for (size_t i = 0; i < all_rates.size(); ++i) {
    if (all_rates[i] < 1e-9) {
      zero_violation_latency += all_p99[i];
      ++zero_count;
    }
  }
  zero_violation_latency = zero_count > 0 ? zero_violation_latency / zero_count : 1.0;

  BucketedStats buckets(0.0, 0.005, 40);
  std::vector<double> normalized_p99;
  for (size_t i = 0; i < all_rates.size(); ++i) {
    normalized_p99.push_back(all_p99[i] / zero_violation_latency);
    buckets.Add(all_rates[i], normalized_p99.back());
  }

  const int sparse = buckets.FirstSparseBucket(/*min_count=*/10);
  Table table({"violation-rate bucket", "machines", "mean p99 latency (norm)", "stddev"});
  std::vector<double> bucket_x;
  std::vector<double> bucket_y;
  for (int b = 0; b < sparse; ++b) {
    const RunningStats& stats = buckets.bucket(b);
    char label[48];
    std::snprintf(label, sizeof(label), "(%.3f, %.3f]", buckets.bucket_lower(b),
                  buckets.bucket_lower(b) + 0.005);
    table.AddRow(label, {static_cast<double>(stats.count()), stats.mean(), stats.stddev()});
    bucket_x.push_back(buckets.bucket_center(b));
    bucket_y.push_back(stats.mean());
  }
  std::printf("\nFig 3(d): p99 CPU scheduling latency vs violation rate (bucketed)\n");
  table.Print();

  const double raw_spearman = SpearmanCorrelation(all_rates, normalized_p99);
  const double bucketed_spearman = SpearmanCorrelation(bucket_x, bucket_y);
  const LinearFit fit = FitLine(bucket_x, bucket_y);
  std::printf(
      "\nSpearman correlation: raw %.2f (paper 0.42), bucketed means %.2f (paper 0.95)\n"
      "fitted slope of bucketed means: %.1f (paper 14.1: +1%% violation rate => +14%% p99)\n",
      raw_spearman, bucketed_spearman, fit.slope);

  CsvWriter csv(ctx.CsvPath("fig03d_bucketed.csv"),
                {"bucket_center", "count", "mean_p99", "stddev"});
  for (int b = 0; b < sparse; ++b) {
    const RunningStats& stats = buckets.bucket(b);
    csv.WriteRow({FormatDouble(buckets.bucket_center(b)), std::to_string(stats.count()),
                  FormatDouble(stats.mean()), FormatDouble(stats.stddev())});
  }
  return 0;
}

}  // namespace

int main() { return Main(); }
