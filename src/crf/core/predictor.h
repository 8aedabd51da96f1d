// The peak predictor interface (paper Section 4).
//
// A peak predictor runs inside the machine-level agent (Borglet): once per
// 5-minute polling interval it observes the usage of every task resident on
// its machine and publishes one number — the predicted peak of the machine's
// aggregate usage over the future horizon. The scheduler subtracts that
// number from the machine's capacity to get advertised free capacity.
//
// Production constraints encoded in this interface (Section 4):
//  * per-machine and self-contained: no cross-machine or remote state;
//  * lightweight: O(resident tasks) time per poll, bounded memory — at most
//    max_num_samples history per task;
//  * warm-up: tasks with fewer than min_num_samples observed samples are
//    represented by their limit, not their (unstable) usage;
//  * a task's usage is capped at its limit by the node isolation layer, so a
//    sane prediction never exceeds the sum of limits: implementations clamp
//    to [current usage, sum of limits].
//
// This interface is the library's extension point, not its engine. The
// built-in families are all evaluated by SweepBank (crf/core/sweep_bank.h):
// the batch simulator, the serve tier and the cluster simulator drive banks
// over one shared SweepPlan directly, and CreatePredictor
// (crf/core/predictor_factory.h) returns a built-in behind this interface
// for standalone use. User-defined policies implement it directly
// (examples/custom_predictor.cc).

#ifndef CRF_CORE_PREDICTOR_H_
#define CRF_CORE_PREDICTOR_H_

#include <memory>
#include <span>
#include <string>

#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

// One task's state at the current polling interval.
struct TaskSample {
  TaskId task_id = 0;
  double usage = 0.0;
  double limit = 0.0;
};

// Knobs shared by all usage-driven predictors (Section 4 / Figs 8-9).
struct PredictorConfig {
  // Warm-up: tasks with fewer samples than this contribute their limit.
  // Paper default: 2 hours.
  Interval min_num_samples = 2 * kIntervalsPerHour;
  // History window: per-task (and per-machine aggregate) samples retained.
  // Paper default: 10 hours.
  Interval max_num_samples = 10 * kIntervalsPerHour;

  bool operator==(const PredictorConfig&) const = default;
};

class PeakPredictor {
 public:
  virtual ~PeakPredictor() = default;

  // Feeds the complete resident task set for interval `now`. Tasks absent
  // from `tasks` have departed and their state must be released. Intervals
  // are fed in increasing order.
  virtual void Observe(Interval now, std::span<const TaskSample> tasks) = 0;

  // The predicted future peak of the observed machine's aggregate usage,
  // based only on data seen so far. Must be callable any number of times
  // between Observe calls.
  virtual double PredictPeak() const = 0;

  // Discards all observed state, returning the predictor to its
  // fresh-from-construction behaviour (configuration is kept), so one
  // instance can be reused across machines instead of re-allocated.
  virtual void Reset() = 0;

  virtual std::string name() const = 0;
};

// Clamps a raw prediction to the sane range [usage_now, limit_sum]: the
// machine is already using usage_now, and enforced limits cap future usage
// at limit_sum.
double ClampPrediction(double raw, double usage_now, double limit_sum);

}  // namespace crf

#endif  // CRF_CORE_PREDICTOR_H_
