// Shared-state evaluation of a whole predictor grid in one trace pass.
//
// The paper's evaluation is parameter sweeps: Figs 8-10 run the same
// cell-week through dozens of predictor configurations that differ only in
// one knob (phi, percentile, N, warm-up, history). Run per spec, every
// RC-like point maintains its own sorted mirror of the same per-task usage
// window and every N-sigma point its own aggregate moments — P sweep points
// do P times the window maintenance to answer P different queries over one
// window.
//
// SweepPlan compiles a spec grid into a shared-state program:
//  * specs are deduplicated into evaluation nodes (a max(...) spec's
//    components become ordinary nodes, shared with any standalone spec that
//    matches them structurally);
//  * RC-like and autopilot nodes share one per-task IndexableWindow (a
//    ring plus one sorted array) per distinct history length — every
//    percentile query is two loads from the same sorted array;
//  * N-sigma nodes share one AggregateWindow per distinct (warm-up, history)
//    pair — every N reads the same running moments;
//  * chance nodes share one machine-level order-statistics window of the
//    warmed aggregate usage per distinct (warm-up, history) pair — every
//    target epsilon is a different quantile of the same distribution;
//  * flex nodes share one machine-level usage/limit ratio window per
//    distinct history length — every (percentile, margin) point queries the
//    same ratio distribution;
//  * borg-default / limit-sum nodes read the one per-interval limit sum.
// Warm-up classification rides on one universal per-task sample counter:
// min_num_samples <= max_num_samples, so "window holds >= min samples" is
// exactly "task has seen >= min samples", independent of the window length.
//
// SweepBank is the per-thread mutable state executing a plan over one
// machine at a time: Observe() ingests each interval's resident task set
// once and Predictions() returns one clamped prediction per input spec,
// matching what each standalone predictor would have produced (the sweep
// differential test pins this at 1e-9 relative tolerance).

#ifndef CRF_CORE_SWEEP_BANK_H_
#define CRF_CORE_SWEEP_BANK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crf/core/aggregate_window.h"
#include "crf/core/indexable_window.h"
#include "crf/core/predictor_factory.h"

namespace crf {

// Immutable evaluation program for one predictor grid. Build once per sweep
// and share across threads; SweepBank instances hold the mutable state.
class SweepPlan {
 public:
  // Validates every spec exactly like CreatePredictor would.
  explicit SweepPlan(std::span<const PredictorSpec> specs);

  // One evaluation node per structurally distinct (sub-)spec, in dependency
  // order: a max node's components always precede it.
  struct Node {
    PredictorSpec::Type type = PredictorSpec::Type::kLimitSum;
    double phi = 0.0;         // borg-default
    double percentile = 0.0;  // rc-like / autopilot / flex
    double n_sigma = 0.0;     // n-sigma
    double margin = 0.0;      // autopilot / flex
    double target = 0.0;      // chance
    Interval min_num_samples = 0;
    int window_group = -1;  // rc-like / autopilot: index into window_groups()
    int agg_group = -1;     // n-sigma: index into agg_groups()
    int quant_group = -1;   // chance: index into quant_groups()
    int ratio_group = -1;   // flex: index into ratio_groups()
    std::vector<int> components;  // max: node indices
  };
  // Per-task percentile windows, one group per distinct history length.
  struct WindowGroup {
    int capacity = 0;
  };
  // Machine-aggregate moments, one group per distinct (warm-up, history).
  struct AggGroup {
    Interval min_num_samples = 0;
    int capacity = 0;
  };
  // Machine-aggregate warmed-usage order statistics (chance), one group per
  // distinct (warm-up, history): the warm-up split changes what is pushed.
  struct QuantGroup {
    Interval min_num_samples = 0;
    int capacity = 0;
  };
  // Machine-level usage/limit ratio windows (flex), one group per distinct
  // history length: the pushed ratio is warm-up independent.
  struct RatioGroup {
    int capacity = 0;
  };

  int num_specs() const { return static_cast<int>(spec_nodes_.size()); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<WindowGroup>& window_groups() const { return window_groups_; }
  const std::vector<AggGroup>& agg_groups() const { return agg_groups_; }
  const std::vector<QuantGroup>& quant_groups() const { return quant_groups_; }
  const std::vector<RatioGroup>& ratio_groups() const { return ratio_groups_; }
  // Node evaluating input spec s.
  int spec_node(int s) const { return spec_nodes_[s]; }

  // Process-unique plan identity, so caches of per-plan state (the
  // simulator's thread-local banks) can detect a new plan even at a reused
  // address.
  uint64_t id() const { return id_; }

 private:
  int AddNode(const PredictorSpec& spec);
  int AddWindowGroup(int capacity);
  int AddAggGroup(Interval min_num_samples, int capacity);
  int AddQuantGroup(Interval min_num_samples, int capacity);
  int AddRatioGroup(int capacity);

  uint64_t id_;
  std::vector<Node> nodes_;
  std::vector<PredictorSpec> node_specs_;  // Parallel to nodes_, for dedup.
  std::vector<int> spec_nodes_;
  std::vector<WindowGroup> window_groups_;
  std::vector<AggGroup> agg_groups_;
  std::vector<QuantGroup> quant_groups_;
  std::vector<RatioGroup> ratio_groups_;
};

// Mutable per-thread execution state for one SweepPlan. Reusable across
// machines (BeginMachine) and across plans (Attach); window objects are
// pooled through a free list so steady-state churn allocates nothing once
// buffers reach their high-water size.
class SweepBank {
 public:
  SweepBank() = default;

  // Binds the bank to a plan, discarding all prior state. The plan must
  // outlive the bank's use of it.
  void Attach(const SweepPlan* plan);

  // Resets per-machine state (roster, windows, moments). Call before the
  // first Observe of each machine.
  void BeginMachine();

  // Ingests the complete resident task set for interval `now` and evaluates
  // every node. Intervals are fed in increasing order, one machine at a
  // time, exactly like PeakPredictor::Observe.
  void Observe(Interval now, std::span<const TaskSample> tasks);

  // One prediction per input spec (plan order), for the last Observe.
  std::span<const double> Predictions() const { return spec_predictions_; }

  const SweepPlan* plan() const { return plan_; }

 private:
  struct WindowGroupState {
    // Pool of windows; slot_window maps roster slots to pool indices.
    std::vector<IndexableWindow> windows;
    std::vector<int32_t> slot_window;
    std::vector<int32_t> free_list;
  };

  void RebuildRoster(std::span<const TaskSample> tasks);
  int32_t AllocWindow(WindowGroupState& group, int capacity);

  const SweepPlan* plan_ = nullptr;

  // Resident task roster, parallel to the sample order of the last Observe.
  // samples_seen_ is the universal warm-up counter shared by every group.
  std::vector<TaskId> roster_ids_;
  std::vector<Interval> samples_seen_;

  std::vector<WindowGroupState> window_groups_;
  std::vector<AggregateWindow> agg_windows_;
  // Machine-level windows: chance warmed-usage distributions and flex
  // usage/limit ratio distributions, parallel to the plan's group lists.
  std::vector<IndexableWindow> quant_windows_;
  std::vector<IndexableWindow> ratio_windows_;

  // Nodes that query a per-task window (rc-like, autopilot), hoisted out of
  // the node list so the task loop touches nothing else.
  std::vector<int> per_task_nodes_;

  // Per-agg-group accumulators / published statistics for the last Observe.
  std::vector<double> agg_warmed_;
  std::vector<double> agg_warming_limit_;
  std::vector<double> agg_mean_;
  std::vector<double> agg_stddev_;

  // Per-quant-group accumulators for the last Observe (chance).
  std::vector<double> quant_warmed_;
  std::vector<double> quant_warming_limit_;

  std::vector<double> node_values_;
  std::vector<double> spec_predictions_;

  // Rebuild scratch, reused across events.
  std::vector<TaskId> rebuild_ids_;
  std::vector<Interval> rebuild_seen_;
  std::vector<int32_t> rebuild_slots_;
  std::vector<uint8_t> rebuild_slot_carried_;
};

}  // namespace crf

#endif  // CRF_CORE_SWEEP_BANK_H_
