// The predictor engine: every built-in family, evaluated for a whole spec
// grid in one trace pass.
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
// So the split into warmed usage and warming limits depends only on the
// warm-up: N-sigma and chance groups share one split per distinct warm-up.
// A plan with no per-task window and no split (borg-default, limit-sum,
// flex) keeps no per-task state at all: no roster, no counter.
//
// SweepBank is the per-thread mutable state executing a plan over one
// machine at a time: Observe() ingests each interval's resident task set
// once and Predictions() returns one clamped prediction per input spec.
// This is the only implementation of the families in the library. The batch
// simulator, the serve tier (OvercommitService) and the cluster simulator
// (ClusterMachine) each build one plan and drive plain banks on it; only
// CreatePredictor (crf/core/predictor_factory.h), the PeakPredictor
// extension point, wraps a one-spec bank. The independent per-family
// reference lives in tests/reference/, and sweep_engine_test pins the bank
// to it bit for bit.

#ifndef CRF_CORE_SWEEP_BANK_H_
#define CRF_CORE_SWEEP_BANK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "crf/core/aggregate_window.h"
#include "crf/core/indexable_window.h"
#include "crf/core/predictor_factory.h"

namespace crf {

// Immutable evaluation program for one predictor grid. Build once per sweep
// and share across threads; SweepBank instances hold the mutable state.
class SweepPlan {
 public:
  // CHECK-fails on any spec ValidatePredictorSpec rejects.
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
    bool operator==(const WindowGroup&) const = default;
  };
  // Warmed-usage / warming-limit split, one per distinct warm-up.
  struct SplitGroup {
    Interval min_num_samples = 0;
    bool operator==(const SplitGroup&) const = default;
  };
  // Machine-aggregate moments, one group per distinct (warm-up, history).
  struct AggGroup {
    Interval min_num_samples = 0;
    int capacity = 0;
    int split = -1;  // Index into split_groups().
    bool operator==(const AggGroup&) const = default;
  };
  // Machine-aggregate warmed-usage order statistics (chance), one group per
  // distinct (warm-up, history): the warm-up split changes what is pushed.
  struct QuantGroup {
    Interval min_num_samples = 0;
    int capacity = 0;
    int split = -1;  // Index into split_groups().
    bool operator==(const QuantGroup&) const = default;
  };
  // Machine-level usage/limit ratio windows (flex), one group per distinct
  // history length: the pushed ratio is warm-up independent.
  struct RatioGroup {
    int capacity = 0;
    bool operator==(const RatioGroup&) const = default;
  };

  int num_specs() const { return static_cast<int>(spec_nodes_.size()); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<WindowGroup>& window_groups() const { return window_groups_; }
  const std::vector<SplitGroup>& split_groups() const { return split_groups_; }
  const std::vector<AggGroup>& agg_groups() const { return agg_groups_; }
  const std::vector<QuantGroup>& quant_groups() const { return quant_groups_; }
  const std::vector<RatioGroup>& ratio_groups() const { return ratio_groups_; }
  // Node evaluating input spec s, and the spec itself.
  int spec_node(int s) const { return spec_nodes_[s]; }
  const PredictorSpec& spec(int s) const { return node_specs_[spec_nodes_[s]]; }

  // Whether any node needs per-task state (a per-task window or a warm-up
  // split). When none does, banks keep no roster and no warm-up counters
  // and sum each interval's samples in one pass.
  bool tracks_tasks() const { return tracks_tasks_; }

  // Process-unique plan identity, so caches of per-plan state (the
  // simulator's thread-local banks) can detect a new plan even at a reused
  // address.
  uint64_t id() const { return id_; }

 private:
  int AddNode(const PredictorSpec& spec);
  // Index of `group` in `groups`, appending it if new.
  template <typename Group>
  static int AddGroup(std::vector<Group>& groups, const Group& group) {
    const auto it = std::find(groups.begin(), groups.end(), group);
    if (it != groups.end()) {
      return static_cast<int>(it - groups.begin());
    }
    groups.push_back(group);
    return static_cast<int>(groups.size()) - 1;
  }

  uint64_t id_;
  bool tracks_tasks_ = false;
  std::vector<Node> nodes_;
  std::vector<PredictorSpec> node_specs_;  // Parallel to nodes_, for dedup.
  std::vector<int> spec_nodes_;
  std::vector<WindowGroup> window_groups_;
  std::vector<SplitGroup> split_groups_;
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

  // Checkpoint support (crf/serve): the current machine's complete state —
  // roster and warm-up counters, every window, the last predictions — so a
  // bank attached to a plan built from the same specs resumes
  // bit-identically. A load checks the payload against the attached plan
  // (group counts, window capacities, roster length) and fails, latching
  // the reader's failure flag, on any malformed or mismatched bytes; the
  // bank is then unspecified and must be re-attached or discarded.
  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self);
  void SaveState(ByteWriter& out) const { out.Field(*this); }
  bool LoadState(ByteReader& in) {
    in.Field(*this);
    return in.ok();
  }

 private:
  struct WindowGroupState {
    // Pool of windows; slot_window maps roster slots to pool indices.
    std::vector<IndexableWindow> windows;
    std::vector<int32_t> slot_window;
    std::vector<int32_t> free_list;
  };

  // Matches the roster to `tasks` (rebuilding on arrival/departure). One
  // pass sums usage and limits into `usage_now` and `limit_sum`, counts each
  // task's sample and computes the first warm-up split; each further split
  // is one more pass, and the per-task windows and node sums one more.
  void ObserveTasks(std::span<const TaskSample> tasks, double& usage_now, double& limit_sum);
  // Returns the usage sum of the tasks past `min_num_samples` samples and
  // stores the limit sum of the rest in `warming_limit`.
  double SplitWarmed(std::span<const TaskSample> tasks, Interval min_num_samples,
                     double& warming_limit) const;
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

  // Per-split-group sums and per-agg-group published statistics for the
  // last Observe.
  std::vector<double> split_warmed_;
  std::vector<double> split_warming_limit_;
  std::vector<double> agg_mean_;
  std::vector<double> agg_stddev_;

  std::vector<double> node_values_;
  std::vector<double> spec_predictions_;

  // Rebuild scratch, reused across events.
  std::vector<std::pair<TaskId, int32_t>> rebuild_index_;
  std::vector<Interval> rebuild_seen_;
  std::vector<int32_t> rebuild_slots_;
  std::vector<uint8_t> rebuild_slot_carried_;
  std::vector<int32_t> rebuild_windows_;
};

}  // namespace crf

#endif  // CRF_CORE_SWEEP_BANK_H_
