#include "crf/sim/metrics.h"

#include <algorithm>

namespace crf {

Ecdf SimResult::ViolationRateCdf() const {
  Ecdf cdf;
  for (const MachineMetrics& m : machines) {
    cdf.Add(m.violation_rate());
  }
  return cdf;
}

Ecdf SimResult::ViolationSeverityCdf() const {
  Ecdf cdf;
  for (const MachineMetrics& m : machines) {
    cdf.Add(m.mean_violation_severity);
  }
  return cdf;
}

Ecdf SimResult::MachineSavingsCdf() const {
  Ecdf cdf;
  for (const MachineMetrics& m : machines) {
    cdf.Add(m.savings_ratio);
  }
  return cdf;
}

Ecdf SimResult::SeverityP999Cdf() const {
  Ecdf cdf;
  for (const MachineMetrics& m : machines) {
    cdf.Add(m.tail.severity_p999);
  }
  return cdf;
}

Ecdf SimResult::MaxStreakCdf() const {
  Ecdf cdf;
  for (const MachineMetrics& m : machines) {
    cdf.Add(static_cast<double>(m.tail.max_violation_streak));
  }
  return cdf;
}

Ecdf SimResult::CellSavingsCdf() const { return Ecdf(cell_savings_series); }

double SimResult::WorstSeverityP999() const {
  double worst = 0.0;
  for (const MachineMetrics& m : machines) {
    worst = std::max(worst, m.tail.severity_p999);
  }
  return worst;
}

int64_t SimResult::MaxViolationStreak() const {
  int64_t longest = 0;
  for (const MachineMetrics& m : machines) {
    longest = std::max(longest, m.tail.max_violation_streak);
  }
  return longest;
}

void FinalizeMachineMetrics(const RiskAccumulator& risk, int machine_index,
                            int64_t num_intervals, MachineMetrics& metrics) {
  metrics.machine_index = machine_index;
  metrics.intervals = num_intervals;
  metrics.occupied_intervals = risk.occupied_intervals();
  metrics.violations = risk.violations();
  if (num_intervals > 0) {
    metrics.mean_violation_severity = risk.severity_sum() / num_intervals;
    metrics.mean_prediction = risk.prediction_sum() / num_intervals;
    metrics.mean_limit = risk.limit_sum_total() / num_intervals;
  }
  if (risk.occupied_intervals() > 0) {
    metrics.savings_ratio =
        risk.savings_sum() / static_cast<double>(risk.occupied_intervals());
  }
  metrics.tail = risk.TailSummary();
}

void ScoreTick(Interval tau, std::span<const double> predictions, double oracle,
               double limit_sum, bool occupied, std::span<RiskAccumulator> risk,
               std::vector<double>* cell_limit,
               std::span<std::vector<double>> cell_predictions) {
  for (size_t s = 0; s < predictions.size(); ++s) {
    risk[s].Record(predictions[s], oracle, limit_sum, occupied);
  }
  if (cell_limit != nullptr) {
    (*cell_limit)[tau] += limit_sum;
  }
  for (size_t s = 0; s < cell_predictions.size(); ++s) {
    cell_predictions[s][tau] += predictions[s];
  }
}

double SimResult::MeanCellSavings() const {
  if (cell_savings_series.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double s : cell_savings_series) {
    sum += s;
  }
  return sum / static_cast<double>(cell_savings_series.size());
}

std::vector<double> CellSavingsSeries(std::span<const double> cell_limit,
                                      std::span<const double> cell_prediction) {
  std::vector<double> series;
  series.reserve(cell_limit.size());
  for (size_t t = 0; t < cell_limit.size(); ++t) {
    if (cell_limit[t] > 0.0) {
      series.push_back((cell_limit[t] - cell_prediction[t]) / cell_limit[t]);
    }
  }
  return series;
}

double SimResult::MeanViolationRate() const {
  if (machines.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const MachineMetrics& m : machines) {
    sum += m.violation_rate();
  }
  return sum / static_cast<double>(machines.size());
}

}  // namespace crf
