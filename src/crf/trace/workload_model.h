// Per-task CPU usage synthesis.
//
// Each task's usage is a mean level (a fraction of its limit) modulated by a
// diurnal wave, an AR(1) noise process, and rare spike episodes that push
// usage toward the limit — the "task that reaches its limit 5% of the time
// but usually runs much lower" behaviour Section 2.2 identifies as the
// overcommit opportunity. Within each 5-minute interval the model emits
// kSubSamples sub-interval samples (multiplicative lognormal jitter around
// the interval level), from which MachineUsageKernel derives each task's
// within-interval p90 (and, for rich traces, its percentile ladder) and the
// machine-level true peak. The kernel is the one per-machine usage loop of
// the trace generator (heap and streamed) and of the cluster simulator's
// machine step.

#ifndef CRF_TRACE_WORKLOAD_MODEL_H_
#define CRF_TRACE_WORKLOAD_MODEL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crf/trace/trace.h"
#include "crf/util/rng.h"
#include "crf/util/time_grid.h"

namespace crf {

// Number of sub-interval samples per 5-minute interval (25-second spacing).
inline constexpr int kSubSamplesPerInterval = 12;

struct TaskUsageParams {
  double limit = 1.0;
  // Mean usage as a fraction of the limit.
  double mean_ratio = 0.5;
  // Relative amplitude of the daily sine wave (0 = flat).
  double diurnal_amplitude = 0.3;
  // Phase of the daily wave in fractional days [0, 1).
  double phase_days = 0.0;
  // AR(1) autocorrelation and stationary stddev (as a fraction of the limit).
  double ar_rho = 0.85;
  double ar_sigma = 0.06;
  // Probability per interval of starting a spike episode, the usage/limit
  // level it drives to, and its length in intervals.
  double spike_prob = 0.004;
  double spike_level = 0.95;
  Interval spike_duration = 2;
  // Lognormal sigma of within-interval sub-sample jitter.
  double within_sigma = 0.08;
  // Coupling to the cell-wide shared load factor in [0, 1]: 0 = fully
  // independent, 1 = usage scales with the shared factor. Serving jobs that
  // all face the same user traffic have high coupling; batch jobs have none.
  double load_coupling = 0.0;
};

class TaskUsageModel {
 public:
  // `interval0` is the absolute interval at which the task starts (so that
  // the diurnal phase is anchored to wall-clock time, not task age).
  TaskUsageModel(const TaskUsageParams& params, Interval interval0, Rng rng);

  // Produces the sub-interval usage samples for the next interval. Samples
  // are clamped to [0, limit]. `shared_load` is the cell-wide load factor
  // for this interval (mean 1.0); it scales usage by
  // (1 - load_coupling + load_coupling * shared_load).
  void Step(std::span<double> sub_samples, double shared_load = 1.0);

  const TaskUsageParams& params() const { return params_; }

 private:
  TaskUsageParams params_;
  Rng rng_;
  Interval next_interval_;
  // AR(1) innovation stddev, scaled so the stationary stddev is ar_sigma.
  double innovation_sigma_;
  double ar_state_ = 0.0;
  Interval spike_remaining_ = 0;
};

// Summaries of kSubSamplesPerInterval sub-samples. Both interpolate linearly
// between sorted ranks, so IntervalP90(s) == IntervalLadder(s).p90 bit for bit.
// The within-interval p90: the simulator's usage input (Section 5.1.2).
float IntervalP90(std::span<const double> sub_samples);
// The full within-interval ladder, stored only by rich traces.
RichUsage IntervalLadder(std::span<const double> sub_samples);

// One machine's usage synthesis: the set of running tasks, each with its
// usage model, advanced one interval at a time. Per interval the caller
// retires ended tasks, admits starting ones in start order, then steps.
// Active-set order (append on admit, swap-erase on retire) fixes the
// float-addition order of the machine sums, so callers must keep that
// retire/admit sequence to reproduce a trace.
class MachineUsageKernel {
 public:
  // Removes every task whose end interval is <= now.
  void Retire(Interval now);
  // Starts a task; `row` is the caller's handle for it (a trace row) and
  // `end` the first interval it no longer runs.
  void Admit(int32_t row, Interval end, TaskUsageModel model) {
    active_.push_back({row, end, std::move(model)});
  }

  // Advances every active task one interval and calls
  // sink(row, p90, ladder) for each, in active-set order; `ladder` points to
  // the task's IntervalLadder when `rich` is set and is nullptr otherwise.
  // Returns the machine's true peak: the largest per-instant sum of the
  // tasks' sub-samples (0 for an idle machine). sums() keeps those sums.
  template <typename Sink>
  double Step(double shared_load, bool rich, Sink&& sink) {
    std::array<double, kSubSamplesPerInterval> sub_samples;
    sums_.fill(0.0);
    for (Task& task : active_) {
      task.model.Step(sub_samples, shared_load);
      if (rich) {
        const RichUsage ladder = IntervalLadder(sub_samples);
        sink(task.row, ladder.p90, &ladder);
      } else {
        sink(task.row, IntervalP90(sub_samples), static_cast<const RichUsage*>(nullptr));
      }
      for (int k = 0; k < kSubSamplesPerInterval; ++k) {
        sums_[k] += sub_samples[k];
      }
    }
    return *std::max_element(sums_.begin(), sums_.end());
  }

  int size() const { return static_cast<int>(active_.size()); }
  const std::array<double, kSubSamplesPerInterval>& sums() const { return sums_; }

 private:
  struct Task {
    int32_t row;
    Interval end;
    TaskUsageModel model;
  };
  std::vector<Task> active_;
  std::array<double, kSubSamplesPerInterval> sums_{};
};

}  // namespace crf

#endif  // CRF_TRACE_WORKLOAD_MODEL_H_
