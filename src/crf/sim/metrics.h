// Evaluation metrics (paper Section 5.1.3).
//
//  * violation rate  - fraction of time instants where the prediction is
//    below the peak oracle, per machine;
//  * violation severity - relative shortfall max(0, (PO - P)/PO), averaged
//    per machine over the simulated period;
//  * savings ratio  - (L - P)/L, the relative extra capacity the predictor
//    frees versus no overcommitment, per machine (averaged over intervals
//    with resident tasks) and per cell (a series over intervals).

#ifndef CRF_SIM_METRICS_H_
#define CRF_SIM_METRICS_H_

#include <span>
#include <string>
#include <vector>

#include "crf/risk/risk_accumulator.h"
#include "crf/stats/ecdf.h"
#include "crf/util/time_grid.h"

namespace crf {

struct MachineMetrics {
  int machine_index = -1;
  // Intervals evaluated (the whole simulated period).
  int64_t intervals = 0;
  // Intervals with at least one resident task.
  int64_t occupied_intervals = 0;
  int64_t violations = 0;
  // Mean over all intervals of max(0, (PO - P)/PO)  (0 when no violation).
  double mean_violation_severity = 0.0;
  // Mean over occupied intervals of (L - P)/L.
  double savings_ratio = 0.0;
  // Mean prediction and mean limit sum (diagnostics).
  double mean_prediction = 0.0;
  double mean_limit = 0.0;
  // Tail metrics (crf/risk): severity quantiles, violation streaks,
  // time-weighted violation fraction, savings-at-risk.
  RiskTailSummary tail;

  double violation_rate() const {
    return intervals == 0 ? 0.0 : static_cast<double>(violations) / intervals;
  }
};

// Fills the mean-level fields of `metrics` from an accumulator using the
// engines' shared divisor arithmetic (severity/prediction/limit means over
// all intervals, savings over occupied intervals) plus the tail summary.
// Shared by the batch simulator and the streaming replayer so both finalize
// identically.
void FinalizeMachineMetrics(const RiskAccumulator& risk, int machine_index,
                            int64_t num_intervals, MachineMetrics& metrics);

// Scores one machine-interval, the per-tick step after the predictor round
// that the batch walk and the streaming replayer share: records spec s's
// prediction against `oracle` into risk[s] (risk holds at least one
// accumulator per prediction), adds `limit_sum` to (*cell_limit)[tau] and
// spec s's prediction to cell_predictions[s][tau]. `cell_limit` may be null
// and `cell_predictions` empty (SimulateMachine without series).
void ScoreTick(Interval tau, std::span<const double> predictions, double oracle,
               double limit_sum, bool occupied, std::span<RiskAccumulator> risk,
               std::vector<double>* cell_limit,
               std::span<std::vector<double>> cell_predictions);

struct SimResult {
  std::string cell_name;
  std::string predictor_name;
  std::vector<MachineMetrics> machines;
  // Per-interval cell-level (sum L - sum P) / sum L.
  std::vector<double> cell_savings_series;

  // CDFs over machines.
  Ecdf ViolationRateCdf() const;
  Ecdf ViolationSeverityCdf() const;
  Ecdf MachineSavingsCdf() const;
  // Tail CDFs over machines (crf/risk).
  Ecdf SeverityP999Cdf() const;
  Ecdf MaxStreakCdf() const;
  // CDF over intervals of the cell-level savings series.
  Ecdf CellSavingsCdf() const;

  // Time-average cell-level savings: the "1 - predicted peak / total limit"
  // bar of Figs 8(b)/9(b)/11(c).
  double MeanCellSavings() const;
  // Mean per-machine violation rate.
  double MeanViolationRate() const;
  // Tail aggregates over machines (crf/risk): the worst p999 severity and
  // the longest violation streak anywhere in the cell.
  double WorstSeverityP999() const;
  int64_t MaxViolationStreak() const;
};

// IsPeakViolation / kViolationRelTolerance moved to crf/risk (shared by all
// four scoring engines); re-exported here via the include above.

// Builds the per-interval cell-level savings series (sum L - sum P) / sum L
// from aggregated per-interval limit and prediction series, skipping
// intervals where the cell holds no tasks (zero limit). Shared by
// SimulateCell and SimulateCellMulti so both aggregate identically.
std::vector<double> CellSavingsSeries(std::span<const double> cell_limit,
                                      std::span<const double> cell_prediction);

}  // namespace crf

#endif  // CRF_SIM_METRICS_H_
