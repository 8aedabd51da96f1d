#include "crf/core/sweep_bank.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {

constexpr uint8_t kStateTag = 'K';
// Upper bound on a restored roster: far above any real machine's resident
// task count, small enough to reject a corrupted length before allocating.
constexpr uint64_t kMaxRosterTasks = 1 << 20;
// Upper bound on a restored warm-up counter: ~10,000 years of 5-minute
// polls, far below where further increments could overflow an Interval.
constexpr Interval kMaxSamplesSeen = Interval{1} << 30;

uint64_t NextPlanId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SweepPlan::SweepPlan(std::span<const PredictorSpec> specs) : id_(NextPlanId()) {
  spec_nodes_.reserve(specs.size());
  for (const PredictorSpec& spec : specs) {
    std::string error;
    CRF_CHECK(ValidatePredictorSpec(spec, &error)) << error;
    spec_nodes_.push_back(AddNode(spec));
  }
  tracks_tasks_ = !window_groups_.empty() || !split_groups_.empty();
}

int SweepPlan::AddNode(const PredictorSpec& spec) {
  for (size_t i = 0; i < node_specs_.size(); ++i) {
    if (node_specs_[i] == spec) {
      return static_cast<int>(i);
    }
  }
  Node node;
  node.type = spec.type;
  switch (spec.type) {
    case PredictorSpec::Type::kLimitSum:
      break;
    case PredictorSpec::Type::kBorgDefault:
      node.phi = spec.phi;
      break;
    case PredictorSpec::Type::kRcLike:
      node.percentile = spec.percentile;
      node.min_num_samples = spec.config.min_num_samples;
      node.window_group = AddGroup(window_groups_, {spec.config.max_num_samples});
      break;
    case PredictorSpec::Type::kAutopilot:
      node.percentile = spec.percentile;
      node.margin = spec.margin;
      node.min_num_samples = spec.config.min_num_samples;
      node.window_group = AddGroup(window_groups_, {spec.config.max_num_samples});
      break;
    case PredictorSpec::Type::kNSigma:
      node.n_sigma = spec.n_sigma;
      node.min_num_samples = spec.config.min_num_samples;
      node.agg_group =
          AddGroup(agg_groups_, {spec.config.min_num_samples, spec.config.max_num_samples,
                                 AddGroup(split_groups_, {spec.config.min_num_samples})});
      break;
    case PredictorSpec::Type::kChance:
      node.target = spec.target;
      node.min_num_samples = spec.config.min_num_samples;
      node.quant_group =
          AddGroup(quant_groups_, {spec.config.min_num_samples, spec.config.max_num_samples,
                                   AddGroup(split_groups_, {spec.config.min_num_samples})});
      break;
    case PredictorSpec::Type::kFlex:
      node.percentile = spec.percentile;
      node.margin = spec.margin;
      node.min_num_samples = spec.config.min_num_samples;
      node.ratio_group = AddGroup(ratio_groups_, {spec.config.max_num_samples});
      break;
    case PredictorSpec::Type::kMax:
      node.components.reserve(spec.components.size());
      for (const PredictorSpec& component : spec.components) {
        node.components.push_back(AddNode(component));
      }
      break;
  }
  nodes_.push_back(std::move(node));
  node_specs_.push_back(spec);
  return static_cast<int>(nodes_.size()) - 1;
}

void SweepBank::Attach(const SweepPlan* plan) {
  CRF_CHECK(plan != nullptr);
  plan_ = plan;

  window_groups_.clear();
  window_groups_.resize(plan->window_groups().size());

  // One machine-level window per group, at the group's capacity.
  const auto build_windows = [](const auto& groups, auto& windows) {
    windows.clear();
    windows.reserve(groups.size());
    for (const auto& group : groups) {
      windows.emplace_back(group.capacity);
    }
  };
  build_windows(plan->agg_groups(), agg_windows_);
  build_windows(plan->quant_groups(), quant_windows_);
  build_windows(plan->ratio_groups(), ratio_windows_);
  split_warmed_.assign(plan->split_groups().size(), 0.0);
  split_warming_limit_.assign(plan->split_groups().size(), 0.0);
  agg_mean_.assign(plan->agg_groups().size(), 0.0);
  agg_stddev_.assign(plan->agg_groups().size(), 0.0);

  per_task_nodes_.clear();
  for (int n = 0; n < plan->num_nodes(); ++n) {
    const SweepPlan::Node& node = plan->nodes()[n];
    if (node.type == PredictorSpec::Type::kRcLike ||
        node.type == PredictorSpec::Type::kAutopilot) {
      per_task_nodes_.push_back(n);
    }
  }

  node_values_.assign(plan->num_nodes(), 0.0);
  spec_predictions_.assign(plan->num_specs(), 0.0);

  roster_ids_.clear();
  samples_seen_.clear();
}

void SweepBank::BeginMachine() {
  CRF_CHECK(plan_ != nullptr);
  roster_ids_.clear();
  samples_seen_.clear();
  for (WindowGroupState& group : window_groups_) {
    // Return every live window to the pool; Clear keeps their storage.
    for (int32_t w : group.slot_window) {
      group.windows[w].Clear();
      group.free_list.push_back(w);
    }
    group.slot_window.clear();
  }
  for (AggregateWindow& window : agg_windows_) {
    window.Reset();
  }
  for (IndexableWindow& window : quant_windows_) {
    window.Clear();
  }
  for (IndexableWindow& window : ratio_windows_) {
    window.Clear();
  }
  std::fill(node_values_.begin(), node_values_.end(), 0.0);
  std::fill(spec_predictions_.begin(), spec_predictions_.end(), 0.0);
}

int32_t SweepBank::AllocWindow(WindowGroupState& group, int capacity) {
  if (!group.free_list.empty()) {
    const int32_t w = group.free_list.back();
    group.free_list.pop_back();
    return w;  // Pooled windows are Clear()ed on release and share capacity.
  }
  group.windows.emplace_back(capacity);
  return static_cast<int32_t>(group.windows.size()) - 1;
}

void SweepBank::RebuildRoster(std::span<const TaskSample> tasks) {
  // Carry surviving tasks' state over by id; departed tasks' windows return
  // to the pool and their warm-up progress is dropped (re-arrival of the
  // same id restarts warm-up, per the PeakPredictor::Observe contract). The
  // old roster is searched through (id, slot) pairs sorted in reused
  // scratch, so a rebuild allocates nothing once its buffers are warm.
  rebuild_index_.resize(roster_ids_.size());
  for (size_t s = 0; s < roster_ids_.size(); ++s) {
    rebuild_index_[s] = {roster_ids_[s], static_cast<int32_t>(s)};
  }
  std::sort(rebuild_index_.begin(), rebuild_index_.end());
  rebuild_slot_carried_.assign(roster_ids_.size(), 0);
  rebuild_seen_.resize(tasks.size());
  rebuild_slots_.resize(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    // The id's first old slot carries once: a duplicated id gets one carry,
    // then fresh state.
    const auto it = std::lower_bound(rebuild_index_.begin(), rebuild_index_.end(),
                                     std::pair{tasks[i].task_id, int32_t{-1}});
    if (it != rebuild_index_.end() && it->first == tasks[i].task_id &&
        !rebuild_slot_carried_[it->second]) {
      rebuild_seen_[i] = samples_seen_[it->second];
      rebuild_slots_[i] = it->second;
      rebuild_slot_carried_[it->second] = 1;
    } else {
      rebuild_seen_[i] = 0;
      rebuild_slots_[i] = -1;
    }
  }

  for (size_t g = 0; g < window_groups_.size(); ++g) {
    WindowGroupState& group = window_groups_[g];
    const int capacity = plan_->window_groups()[g].capacity;
    // Departed slots release their windows first so a same-interval
    // departure+arrival reuses the freed storage.
    for (size_t s = 0; s < group.slot_window.size(); ++s) {
      if (!rebuild_slot_carried_[s]) {
        group.windows[group.slot_window[s]].Clear();
        group.free_list.push_back(group.slot_window[s]);
      }
    }
    rebuild_windows_.resize(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      rebuild_windows_[i] = rebuild_slots_[i] >= 0 ? group.slot_window[rebuild_slots_[i]]
                                                   : AllocWindow(group, capacity);
    }
    group.slot_window.swap(rebuild_windows_);
  }

  roster_ids_.resize(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    roster_ids_[i] = tasks[i].task_id;
  }
  samples_seen_.swap(rebuild_seen_);
}

void SweepBank::ObserveTasks(std::span<const TaskSample> tasks, double& usage_now,
                             double& limit_sum) {
  if (!std::ranges::equal(roster_ids_, tasks, {}, {}, &TaskSample::task_id)) {
    RebuildRoster(tasks);
  }
  // Every running sum below lives in a local, not a member array: a sum
  // stored through memory costs a store-to-load round trip per task. The
  // first pass also takes the first warm-up split, so a one-spec plan makes
  // one pass over the tasks plus its per-task windows, if any.
  const std::vector<SweepPlan::SplitGroup>& splits = plan_->split_groups();
  const Interval first_min = splits.empty() ? std::numeric_limits<Interval>::max()
                                            : splits[0].min_num_samples;
  double usage = 0.0;
  double limits = 0.0;
  double warmed = 0.0;
  double warming = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskSample& sample = tasks[i];
    usage += sample.usage;
    limits += sample.limit;
    if (++samples_seen_[i] >= first_min) {
      warmed += sample.usage;
    } else {
      warming += sample.limit;
    }
  }
  usage_now = usage;
  limit_sum = limits;
  if (!splits.empty()) {
    split_warmed_[0] = warmed;
    split_warming_limit_[0] = warming;
  }
  for (size_t k = 1; k < splits.size(); ++k) {
    split_warmed_[k] = SplitWarmed(tasks, splits[k].min_num_samples, split_warming_limit_[k]);
  }

  // Task-major over the per-task windows, so a task's windows stay in cache
  // from its pushes through every percentile query on them. One push per
  // distinct history length serves every query against that window.
  const std::vector<SweepPlan::Node>& nodes = plan_->nodes();
  for (const int n : per_task_nodes_) {
    node_values_[n] = 0.0;
  }
  if (!window_groups_.empty()) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      const TaskSample& sample = tasks[i];
      for (WindowGroupState& group : window_groups_) {
        group.windows[group.slot_window[i]].Push(static_cast<float>(sample.usage));
      }
      for (const int n : per_task_nodes_) {
        const SweepPlan::Node& node = nodes[n];
        // size() >= min ⟺ seen >= min: the window holds min(seen, capacity)
        // samples and min_num_samples <= capacity by construction.
        if (samples_seen_[i] >= node.min_num_samples) {
          const WindowGroupState& group = window_groups_[node.window_group];
          const double percentile =
              group.windows[group.slot_window[i]].Percentile(node.percentile);
          node_values_[n] += node.type == PredictorSpec::Type::kAutopilot
                                 ? std::min(sample.limit, node.margin * percentile)
                                 : percentile;
        } else {
          node_values_[n] += sample.limit;  // Warm-up: represent by the limit.
        }
      }
    }
  }
}

double SweepBank::SplitWarmed(std::span<const TaskSample> tasks, Interval min_num_samples,
                              double& warming_limit) const {
  double warmed = 0.0;
  double warming = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (samples_seen_[i] >= min_num_samples) {
      warmed += tasks[i].usage;
    } else {
      warming += tasks[i].limit;
    }
  }
  warming_limit = warming;
  return warmed;
}

void SweepBank::Observe(Interval /*now*/, std::span<const TaskSample> tasks) {
  CRF_CHECK(plan_ != nullptr);

  double usage_now = 0.0;
  double limit_sum = 0.0;
  if (plan_->tracks_tasks()) {
    ObserveTasks(tasks, usage_now, limit_sum);
  } else {
    for (const TaskSample& sample : tasks) {
      usage_now += sample.usage;
      limit_sum += sample.limit;
    }
  }

  for (size_t g = 0; g < agg_windows_.size(); ++g) {
    agg_windows_[g].Push(split_warmed_[plan_->agg_groups()[g].split]);
    // Mean before Stddev: Stddev may refresh the running moments, and the
    // published mean must be the one the variance was computed against
    // (the reference n-sigma predictor does the same).
    agg_mean_[g] = agg_windows_[g].Mean();
    agg_stddev_[g] = agg_windows_[g].Stddev();
  }

  // Chance pushes the warmed aggregate unconditionally (idle intervals are
  // real observations); flex only sees occupied polls (0/0 has no gap).
  for (size_t g = 0; g < quant_windows_.size(); ++g) {
    quant_windows_[g].Push(static_cast<float>(split_warmed_[plan_->quant_groups()[g].split]));
  }
  if (limit_sum > 0.0) {
    for (IndexableWindow& window : ratio_windows_) {
      window.Push(static_cast<float>(usage_now / limit_sum));
    }
  }

  const std::vector<SweepPlan::Node>& nodes = plan_->nodes();
  for (int n = 0; n < plan_->num_nodes(); ++n) {
    const SweepPlan::Node& node = nodes[n];
    switch (node.type) {
      case PredictorSpec::Type::kLimitSum:
        node_values_[n] = limit_sum;  // Unclamped: never below usage by design.
        break;
      case PredictorSpec::Type::kBorgDefault:
        node_values_[n] = ClampPrediction(node.phi * limit_sum, usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kRcLike:
      case PredictorSpec::Type::kAutopilot:
        node_values_[n] = ClampPrediction(node_values_[n], usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kNSigma:
        node_values_[n] =
            ClampPrediction(agg_mean_[node.agg_group] +
                                node.n_sigma * agg_stddev_[node.agg_group] +
                                split_warming_limit_[plan_->agg_groups()[node.agg_group].split],
                            usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kChance:
        node_values_[n] = ClampPrediction(
            quant_windows_[node.quant_group].Percentile((1.0 - node.target) * 100.0) +
                split_warming_limit_[plan_->quant_groups()[node.quant_group].split],
            usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kFlex: {
        const IndexableWindow& ratios = ratio_windows_[node.ratio_group];
        const double phi = ratios.size() >= node.min_num_samples
                               ? std::min(1.0, node.margin * ratios.Percentile(node.percentile))
                               : 1.0;
        node_values_[n] = ClampPrediction(phi * limit_sum, usage_now, limit_sum);
        break;
      }
      case PredictorSpec::Type::kMax: {
        double peak = 0.0;
        for (const int c : node.components) {
          peak = std::max(peak, node_values_[c]);
        }
        node_values_[n] = peak;
        break;
      }
    }
  }

  for (int s = 0; s < plan_->num_specs(); ++s) {
    spec_predictions_[s] = node_values_[plan_->spec_node(s)];
  }
}

void SweepBank::SaveState(ByteWriter& out) const {
  CRF_CHECK(plan_ != nullptr);
  out.Write<uint8_t>(kStateTag);
  out.Write<uint32_t>(static_cast<uint32_t>(window_groups_.size()));
  out.Write<uint32_t>(static_cast<uint32_t>(agg_windows_.size()));
  out.Write<uint32_t>(static_cast<uint32_t>(quant_windows_.size()));
  out.Write<uint32_t>(static_cast<uint32_t>(ratio_windows_.size()));
  out.WriteVec(roster_ids_);
  out.WriteVec(samples_seen_);
  // Per-task windows in roster order; pooled free windows carry no state.
  for (const WindowGroupState& group : window_groups_) {
    for (const int32_t w : group.slot_window) {
      group.windows[w].SaveState(out);
    }
  }
  for (const AggregateWindow& window : agg_windows_) {
    window.SaveState(out);
  }
  for (const IndexableWindow& window : quant_windows_) {
    window.SaveState(out);
  }
  for (const IndexableWindow& window : ratio_windows_) {
    window.SaveState(out);
  }
  out.WriteVec(spec_predictions_);
}

bool SweepBank::LoadState(ByteReader& in) {
  CRF_CHECK(plan_ != nullptr);
  const uint8_t tag = in.Read<uint8_t>();
  const uint32_t num_window = in.Read<uint32_t>();
  const uint32_t num_agg = in.Read<uint32_t>();
  const uint32_t num_quant = in.Read<uint32_t>();
  const uint32_t num_ratio = in.Read<uint32_t>();
  std::vector<TaskId> roster_ids;
  std::vector<Interval> samples_seen;
  if (!in.ok() || tag != kStateTag || num_window != plan_->window_groups().size() ||
      num_agg != plan_->agg_groups().size() || num_quant != plan_->quant_groups().size() ||
      num_ratio != plan_->ratio_groups().size() ||
      !in.ReadVec(roster_ids, kMaxRosterTasks) || !in.ReadVec(samples_seen, kMaxRosterTasks) ||
      samples_seen.size() != roster_ids.size() ||
      (!plan_->tracks_tasks() && !roster_ids.empty()) ||
      std::ranges::any_of(samples_seen,
                          [](Interval seen) { return seen < 0 || seen > kMaxSamplesSeen; })) {
    in.Fail();
    return false;
  }
  for (size_t g = 0; g < window_groups_.size(); ++g) {
    WindowGroupState& group = window_groups_[g];
    group.windows.clear();
    group.free_list.clear();
    group.slot_window.resize(roster_ids.size());
    for (size_t i = 0; i < roster_ids.size(); ++i) {
      group.windows.emplace_back(plan_->window_groups()[g].capacity);
      group.slot_window[i] = static_cast<int32_t>(i);
      if (!group.windows.back().LoadState(in)) {
        return false;
      }
    }
  }
  for (AggregateWindow& window : agg_windows_) {
    if (!window.LoadState(in)) {
      return false;
    }
  }
  for (IndexableWindow& window : quant_windows_) {
    if (!window.LoadState(in)) {
      return false;
    }
  }
  for (IndexableWindow& window : ratio_windows_) {
    if (!window.LoadState(in)) {
      return false;
    }
  }
  std::vector<double> predictions;
  if (!in.ReadVec(predictions, spec_predictions_.size()) ||
      predictions.size() != spec_predictions_.size() ||
      !std::ranges::all_of(predictions,
                           [](double value) { return std::isfinite(value) && value >= 0.0; })) {
    in.Fail();
    return false;
  }
  roster_ids_ = std::move(roster_ids);
  samples_seen_ = std::move(samples_seen);
  spec_predictions_ = std::move(predictions);
  std::fill(node_values_.begin(), node_values_.end(), 0.0);
  return true;
}

}  // namespace crf
