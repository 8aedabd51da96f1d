#include "crf/risk/risk_accumulator.h"

#include <algorithm>
#include <cmath>

namespace crf {

RiskAccumulator::RiskAccumulator()
    : severity_p99_(0.99),
      severity_p999_(0.999),
      streak_p99_(0.99),
      streak_p999_(0.999),
      savings_p05_(0.05) {}

void RiskAccumulator::Record(double prediction, double oracle, double limit_sum,
                             bool occupied) {
  if (IsPeakViolation(prediction, oracle)) {
    ++violations_;
    const double severity = (oracle - prediction) / oracle;
    severity_sum_ += severity;
    severity_p99_.Add(severity);
    severity_p999_.Add(severity);
    ++current_streak_;
    if (occupied) {
      ++occupied_violations_;
    }
  } else if (current_streak_ > 0) {
    // A streak just closed: fold its length into the tail estimators.
    max_streak_ = std::max(max_streak_, current_streak_);
    ++streak_count_;
    streak_len_sum_ += current_streak_;
    streak_p99_.Add(static_cast<double>(current_streak_));
    streak_p999_.Add(static_cast<double>(current_streak_));
    current_streak_ = 0;
  }
  if (occupied) {
    ++occupied_intervals_;
    const double savings = (limit_sum - prediction) / limit_sum;
    savings_sum_ += savings;
    savings_p05_.Add(savings);
  }
  prediction_sum_ += prediction;
  limit_sum_total_ += limit_sum;
  ++intervals_;
}

void RiskAccumulator::Reset() {
  intervals_ = 0;
  violations_ = 0;
  occupied_intervals_ = 0;
  occupied_violations_ = 0;
  severity_sum_ = 0.0;
  savings_sum_ = 0.0;
  prediction_sum_ = 0.0;
  limit_sum_total_ = 0.0;
  current_streak_ = 0;
  max_streak_ = 0;
  streak_count_ = 0;
  streak_len_sum_ = 0;
  severity_p99_.Reset();
  severity_p999_.Reset();
  streak_p99_.Reset();
  streak_p999_.Reset();
  savings_p05_.Reset();
}

int64_t RiskAccumulator::max_violation_streak() const {
  return std::max(max_streak_, current_streak_);
}

RiskTailSummary RiskAccumulator::TailSummary() const {
  RiskTailSummary tail;
  tail.severity_p99 = severity_p99_.Value();
  tail.severity_p999 = severity_p999_.Value();
  tail.max_violation_streak = max_violation_streak();
  tail.streak_p99 = streak_p99_.Value();
  tail.streak_p999 = streak_p999_.Value();
  tail.violation_time_fraction =
      occupied_intervals_ > 0
          ? static_cast<double>(occupied_violations_) / static_cast<double>(occupied_intervals_)
          : 0.0;
  tail.savings_at_risk = savings_p05_.Value();
  return tail;
}

template <typename Io, typename Self>
void RiskAccumulator::Transfer(Io& io, Self& self) {
  io.Fields(self.intervals_, self.violations_, self.occupied_intervals_,
            self.occupied_violations_, self.severity_sum_, self.savings_sum_,
            self.prediction_sum_, self.limit_sum_total_, self.current_streak_, self.max_streak_,
            self.streak_count_, self.streak_len_sum_);
  io.Check([&] {
    return self.intervals_ >= 0 && self.violations_ >= 0 && self.occupied_intervals_ >= 0 &&
           self.occupied_violations_ >= 0 && self.current_streak_ >= 0 &&
           self.max_streak_ >= 0 && self.streak_count_ >= 0 && self.streak_len_sum_ >= 0 &&
           self.violations_ <= self.intervals_ &&
           self.occupied_intervals_ <= self.intervals_ &&
           self.occupied_violations_ <= self.occupied_intervals_ &&
           self.occupied_violations_ <= self.violations_ &&
           self.current_streak_ <= self.violations_ && std::isfinite(self.severity_sum_) &&
           std::isfinite(self.savings_sum_) && std::isfinite(self.prediction_sum_) &&
           std::isfinite(self.limit_sum_total_);
  });
  io.Fields(self.severity_p99_, self.severity_p999_, self.streak_p99_, self.streak_p999_,
            self.savings_p05_);
}
CRF_INSTANTIATE_TRANSFER(RiskAccumulator);

}  // namespace crf
