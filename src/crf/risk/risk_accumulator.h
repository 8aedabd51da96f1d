// Unified per-machine violation/savings accounting (DESIGN.md §9a).
//
// Every engine that scores predictions against the clairvoyant oracle — the
// batch simulator, the fused sweep engine, the streaming serve tier, and the
// cluster A/B analysis — used to hand-roll the same six accumulators. They
// now all feed one RiskAccumulator per machine. Record() performs the exact
// accounting arithmetic the engines always did, in the same order, so every
// mean-level metric stays bit-identical to the pre-refactor paths (the
// differential tests pin this); on top it tracks the tail metrics that mean
// rates hide (TARE, arXiv:2607.04935):
//
//  * violation-severity quantiles (p99/p999 of (PO - P)/PO over violating
//    intervals) via the P² streaming estimator;
//  * time-in-violation streaks: the length of each maximal run of
//    consecutive violating intervals, with max and p99/p999 over completed
//    runs — a machine that violates for 3 hours straight pages an SRE even
//    when its mean rate is tiny;
//  * the time-weighted violation fraction: violating intervals among
//    occupied intervals (violations while the machine is empty cannot hurt
//    a resident task);
//  * savings-at-risk: the p5 low quantile of the per-interval savings ratio
//    over occupied intervals — the savings the operator can count on 95% of
//    the time, not just on average.
//
// Zero steady-state allocations: all tail state is P² marker arrays and
// scalars, so Record() never touches the heap — it is safe on the serve
// ingest hot path.

#ifndef CRF_RISK_RISK_ACCUMULATOR_H_
#define CRF_RISK_RISK_ACCUMULATOR_H_

#include <cstdint>

#include "crf/stats/p2_quantile.h"
#include "crf/util/byte_io.h"

namespace crf {

// Relative tolerance when comparing a prediction against the oracle: both
// are sums of the same float samples accumulated along different paths, so
// bit-identical equality cannot be expected.
inline constexpr double kViolationRelTolerance = 1e-9;

// Whether `prediction` undershoots the oracle peak (paper Section 5.1.3).
// Shared by every consumer of RiskAccumulator so all engines count the exact
// same violations.
inline bool IsPeakViolation(double prediction, double oracle) {
  return prediction < oracle * (1.0 - kViolationRelTolerance) - 1e-12;
}

// Tail summary derived from an accumulator (one divisor-free snapshot; mean
// -level metrics keep their engine-specific divisors and live with the
// engines).
struct RiskTailSummary {
  double severity_p99 = 0.0;
  double severity_p999 = 0.0;
  // Longest violation streak, counting a still-open streak.
  int64_t max_violation_streak = 0;
  // Quantiles over completed streaks (an open streak contributes only to
  // max_violation_streak, keeping the getters const and checkpoint-exact).
  double streak_p99 = 0.0;
  double streak_p999 = 0.0;
  // Violating ∩ occupied intervals / occupied intervals (0 when never
  // occupied).
  double violation_time_fraction = 0.0;
  // p5 of the per-interval savings ratio over occupied intervals.
  double savings_at_risk = 0.0;
};

class RiskAccumulator {
 public:
  RiskAccumulator();

  // Scores one interval. Mean-level arithmetic is kept in the exact order
  // the four engines used (violation check → severity; occupied → savings;
  // then the prediction/limit running sums), so their reported means stay
  // bit-identical.
  void Record(double prediction, double oracle, double limit_sum, bool occupied);

  void Reset();

  // --- Mean-level accumulators (the seed's six fields). ---
  int64_t violations() const { return violations_; }
  int64_t occupied_intervals() const { return occupied_intervals_; }
  // Violating intervals that were also occupied (numerator of the
  // time-weighted violation fraction; exposed so cell-level aggregation can
  // sum numerators and denominators across machines).
  int64_t occupied_violations() const { return occupied_violations_; }
  double severity_sum() const { return severity_sum_; }
  double savings_sum() const { return savings_sum_; }
  double prediction_sum() const { return prediction_sum_; }
  double limit_sum_total() const { return limit_sum_total_; }
  // Intervals recorded so far (the engines also know this independently).
  int64_t intervals() const { return intervals_; }

  // --- Tail metrics. ---
  RiskTailSummary TailSummary() const;
  int64_t max_violation_streak() const;
  int64_t completed_streaks() const { return streak_count_; }

  // Checkpoint support (crf/serve): complete state, including the P² marker
  // arrays and the open streak, so a restored accumulator continues
  // bit-identically. A load validates counters and finiteness and fails
  // (latching the reader, this accumulator unchanged) on malformed payloads.
  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self);
  void SaveState(ByteWriter& out) const { out.Field(*this); }
  bool LoadState(ByteReader& in) { return in.Load(*this); }

 private:
  int64_t intervals_ = 0;
  int64_t violations_ = 0;
  int64_t occupied_intervals_ = 0;
  int64_t occupied_violations_ = 0;
  double severity_sum_ = 0.0;
  double savings_sum_ = 0.0;
  double prediction_sum_ = 0.0;
  double limit_sum_total_ = 0.0;

  int64_t current_streak_ = 0;
  int64_t max_streak_ = 0;
  int64_t streak_count_ = 0;
  int64_t streak_len_sum_ = 0;

  P2Quantile severity_p99_;
  P2Quantile severity_p999_;
  P2Quantile streak_p99_;
  P2Quantile streak_p999_;
  P2Quantile savings_p05_;
};

}  // namespace crf

#endif  // CRF_RISK_RISK_ACCUMULATOR_H_
