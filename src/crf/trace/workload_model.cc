#include "crf/trace/workload_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "crf/util/check.h"

namespace crf {

TaskUsageModel::TaskUsageModel(const TaskUsageParams& params, Interval interval0, Rng rng)
    : params_(params),
      rng_(rng),
      next_interval_(interval0),
      innovation_sigma_(params.ar_sigma * std::sqrt(1.0 - params.ar_rho * params.ar_rho)) {
  CRF_CHECK_GT(params_.limit, 0.0);
  CRF_CHECK_GE(params_.mean_ratio, 0.0);
  CRF_CHECK_LE(params_.mean_ratio, 1.0);
  CRF_CHECK_GE(params_.ar_rho, 0.0);
  CRF_CHECK_LT(params_.ar_rho, 1.0);
  // Start the AR process at its stationary distribution so tasks do not all
  // begin at their mean.
  ar_state_ = rng_.Normal(0.0, params_.ar_sigma);
}

void TaskUsageModel::Step(std::span<double> sub_samples, double shared_load) {
  CRF_CHECK_EQ(sub_samples.size(), static_cast<size_t>(kSubSamplesPerInterval));
  const Interval t = next_interval_++;

  const double day_position = static_cast<double>(t) / kIntervalsPerDay - params_.phase_days;
  const double wave = std::sin(2.0 * std::numbers::pi * day_position);
  const double base = params_.mean_ratio * (1.0 + params_.diurnal_amplitude * wave);

  ar_state_ = params_.ar_rho * ar_state_ + rng_.Normal(0.0, innovation_sigma_);

  if (spike_remaining_ > 0) {
    --spike_remaining_;
  } else if (rng_.Bernoulli(params_.spike_prob)) {
    spike_remaining_ = params_.spike_duration;
  }

  const double load_mix =
      1.0 - params_.load_coupling + params_.load_coupling * shared_load;
  double ratio = (base + ar_state_) * std::max(0.0, load_mix);
  if (spike_remaining_ > 0) {
    ratio = std::max(ratio, params_.spike_level + rng_.Normal(0.0, 0.02));
  }
  ratio = std::clamp(ratio, 0.01, 1.0);
  const double level = ratio * params_.limit;

  // Mean-preserving lognormal jitter: E[exp(N(-s^2/2, s))] = 1.
  const double s = params_.within_sigma;
  const double mu = -0.5 * s * s;
  for (auto& sample : sub_samples) {
    sample = std::clamp(level * rng_.LogNormal(mu, s), 0.0, params_.limit);
  }
}

namespace {

using Samples = std::array<double, kSubSamplesPerInterval>;

// Percentile p by linear interpolation between sorted ranks; `sorted` need
// only hold its sorted values at the two ranks p reads.
float Interpolated(const Samples& sorted, double p) {
  const double rank = p / 100.0 * (kSubSamplesPerInterval - 1);
  const int lo = static_cast<int>(rank);
  const int hi = std::min(lo + 1, kSubSamplesPerInterval - 1);
  const double frac = rank - lo;
  return static_cast<float>(sorted[lo] + frac * (sorted[hi] - sorted[lo]));
}

}  // namespace

float IntervalP90(std::span<const double> sub_samples) {
  CRF_CHECK_EQ(sub_samples.size(), static_cast<size_t>(kSubSamplesPerInterval));
  // p90 reads ranks 9 and 10, the third- and second-largest samples. Keep
  // the three largest, descending, by passing each sample down through them.
  std::array<double, 3> top;
  top.fill(-std::numeric_limits<double>::infinity());
  for (double v : sub_samples) {
    for (double& t : top) {
      const double larger = std::max(t, v);
      v = std::min(t, v);
      t = larger;
    }
  }
  Samples ranks{};
  ranks[kSubSamplesPerInterval - 3] = top[2];
  ranks[kSubSamplesPerInterval - 2] = top[1];
  return Interpolated(ranks, 90);
}

RichUsage IntervalLadder(std::span<const double> sub_samples) {
  CRF_CHECK_EQ(sub_samples.size(), static_cast<size_t>(kSubSamplesPerInterval));
  Samples sorted;
  std::copy(sub_samples.begin(), sub_samples.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  RichUsage ladder;
  double sum = 0.0;
  for (const double v : sorted) {
    sum += v;
  }
  ladder.avg = static_cast<float>(sum / kSubSamplesPerInterval);
  ladder.p50 = Interpolated(sorted, 50);
  ladder.p60 = Interpolated(sorted, 60);
  ladder.p70 = Interpolated(sorted, 70);
  ladder.p80 = Interpolated(sorted, 80);
  ladder.p90 = Interpolated(sorted, 90);
  ladder.p95 = Interpolated(sorted, 95);
  ladder.p99 = Interpolated(sorted, 99);
  ladder.max = static_cast<float>(sorted.back());
  return ladder;
}

void MachineUsageKernel::Retire(Interval now) {
  // Swap-erase: O(1) per departure. Task RNG streams are per model, so the
  // reordering never changes a task's samples, only the sum order.
  for (size_t i = 0; i < active_.size();) {
    if (active_[i].end <= now) {
      active_[i] = std::move(active_.back());
      active_.pop_back();
    } else {
      ++i;
    }
  }
}

}  // namespace crf
