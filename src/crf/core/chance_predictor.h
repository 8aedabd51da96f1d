// The chance-constrained predictor (extension; cf. Cohen et al.,
// "Overcommitment in Cloud Services — Bin Packing with Chance Constraints",
// arXiv:1705.09335).
//
// Instead of a Gaussian closure (n-sigma) or a per-task percentile sum
// (rc-like), the predictor sizes the peak directly to a target per-interval
// violation probability epsilon: it keeps the empirical distribution of the
// machine-level aggregate usage of warmed-up tasks over the history window
// and publishes its (1 - epsilon) quantile, so a stationary workload
// violates the prediction in at most an epsilon fraction of intervals by
// construction. Tasks still warming up contribute their limit on top, as in
// the other usage-driven families.
//
// Hot-path design mirrors NSigmaPredictor: per-task state is only the
// warm-up counter, kept in a roster of parallel vectors in the caller's
// sample order, revalidated with one id comparison per task and rebuilt only
// on arrival/departure events. The machine-level empirical distribution
// lives in one sorted-array window (TaskHistory), so each poll costs one
// push plus one O(1) quantile lookup.

#ifndef CRF_CORE_CHANCE_PREDICTOR_H_
#define CRF_CORE_CHANCE_PREDICTOR_H_

#include <vector>

#include "crf/core/predictor.h"
#include "crf/core/task_history.h"

namespace crf {

class ChancePredictor : public PeakPredictor {
 public:
  // `target` is the acceptable per-interval violation probability epsilon,
  // in (0, 1) exclusive.
  ChancePredictor(double target, const PredictorConfig& config);

  void Observe(Interval now, std::span<const TaskSample> tasks) override;
  double PredictPeak() const override;
  void Reset() override;
  std::string name() const override;

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in) override;

  double target() const { return target_; }

 private:
  void RebuildRoster(std::span<const TaskSample> tasks);

  double target_;
  PredictorConfig config_;

  // Resident task roster, parallel to the sample order of the last Observe.
  std::vector<TaskId> roster_ids_;
  std::vector<Interval> samples_seen_;

  // Machine-level aggregate usage of warmed tasks over the last
  // max_num_samples polls (the empirical load distribution).
  TaskHistory window_;

  double prediction_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_CHANCE_PREDICTOR_H_
