// Independent per-family reference predictors.
//
// The library evaluates every built-in family through one engine, SweepBank
// (crf/core/sweep_bank.h). Here each family is a self-contained
// PeakPredictor that keeps its own state and computes its own prediction,
// with per-task state in a map keyed by task id rather than the bank's
// shared roster; rc-like/autopilot and n-sigma/chance, which differ only in
// their final formula, share a class. sweep_engine_test pins the bank to
// these bit for bit. They share only the window primitives (IndexableWindow,
// AggregateWindow) and ClampPrediction with the bank.

#ifndef CRF_TESTS_REFERENCE_PREDICTORS_H_
#define CRF_TESTS_REFERENCE_PREDICTORS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crf/core/aggregate_window.h"
#include "crf/core/indexable_window.h"
#include "crf/core/predictor_factory.h"
#include "crf/util/check.h"

namespace crf::reference {

// Sum of the resident tasks' limits: never overcommits (Section 3.2).
class LimitSumPredictor : public PeakPredictor {
 public:
  void Observe(Interval /*now*/, std::span<const TaskSample> tasks) override {
    limit_sum_ = 0.0;
    for (const TaskSample& task : tasks) {
      limit_sum_ += task.limit;
    }
  }
  double PredictPeak() const override { return limit_sum_; }
  void Reset() override { limit_sum_ = 0.0; }
  std::string name() const override { return LimitSumSpec().Name(); }

 private:
  double limit_sum_ = 0.0;
};

// phi * sum of limits, clamped (Section 4).
class BorgDefaultPredictor : public PeakPredictor {
 public:
  explicit BorgDefaultPredictor(double phi) : phi_(phi) {}
  void Observe(Interval /*now*/, std::span<const TaskSample> tasks) override {
    limit_sum_ = 0.0;
    usage_now_ = 0.0;
    for (const TaskSample& task : tasks) {
      limit_sum_ += task.limit;
      usage_now_ += task.usage;
    }
  }
  double PredictPeak() const override {
    return ClampPrediction(phi_ * limit_sum_, usage_now_, limit_sum_);
  }
  void Reset() override { limit_sum_ = usage_now_ = 0.0; }
  std::string name() const override { return BorgDefaultSpec(phi_).Name(); }

 private:
  double phi_;
  double limit_sum_ = 0.0;
  double usage_now_ = 0.0;
};

// Per-task usage windows keyed by task id: RC-like sums a percentile of each
// task's window (Section 4); autopilot sums min(limit, margin * percentile)
// (Section 2.2). Warming tasks contribute their limit.
class PercentileSumPredictor : public PeakPredictor {
 public:
  explicit PercentileSumPredictor(PredictorSpec spec) : spec_(std::move(spec)) {}

  void Observe(Interval now, std::span<const TaskSample> tasks) override {
    const bool autopilot = spec_.type == PredictorSpec::Type::kAutopilot;
    double prediction = 0.0;
    double usage_now = 0.0;
    double limit_sum = 0.0;
    for (const TaskSample& sample : tasks) {
      auto [it, inserted] = tasks_.try_emplace(
          sample.task_id, TaskState{IndexableWindow(spec_.config.max_num_samples)});
      TaskState& state = it->second;
      state.history.Push(static_cast<float>(sample.usage));
      state.last_seen = now;
      usage_now += sample.usage;
      limit_sum += sample.limit;
      if (state.history.size() >= spec_.config.min_num_samples) {
        const double percentile = state.history.Percentile(spec_.percentile);
        prediction += autopilot ? std::min(sample.limit, spec_.margin * percentile) : percentile;
      } else {
        prediction += sample.limit;
      }
    }
    // Departed tasks drop their history: re-arrival restarts warm-up.
    std::erase_if(tasks_, [now](const auto& entry) { return entry.second.last_seen != now; });
    prediction_ = ClampPrediction(prediction, usage_now, limit_sum);
  }
  double PredictPeak() const override { return prediction_; }
  void Reset() override {
    tasks_.clear();
    prediction_ = 0.0;
  }
  std::string name() const override { return spec_.Name(); }

 private:
  struct TaskState {
    IndexableWindow history;
    Interval last_seen = -1;
  };

  PredictorSpec spec_;
  std::unordered_map<TaskId, TaskState> tasks_;
  double prediction_ = 0.0;
};

// Machine-level families fed the aggregate usage of warmed tasks: N-sigma
// publishes mean + N * stddev over the window (Section 4), chance the
// (1 - target) quantile (arXiv:1705.09335). Warming tasks contribute their
// limit on top; each task's warm-up counter is keyed by task id.
class WarmedAggregatePredictor : public PeakPredictor {
 public:
  explicit WarmedAggregatePredictor(PredictorSpec spec)
      : spec_(std::move(spec)),
        moments_(spec_.config.max_num_samples),
        quantiles_(spec_.config.max_num_samples) {}

  void Observe(Interval now, std::span<const TaskSample> tasks) override {
    double warmed_usage = 0.0;
    double warming_limit = 0.0;
    double usage_now = 0.0;
    double limit_sum = 0.0;
    for (const TaskSample& sample : tasks) {
      TaskState& state = seen_[sample.task_id];
      state.last_seen = now;
      usage_now += sample.usage;
      limit_sum += sample.limit;
      if (++state.samples >= spec_.config.min_num_samples) {
        warmed_usage += sample.usage;
      } else {
        warming_limit += sample.limit;
      }
    }
    std::erase_if(seen_, [now](const auto& entry) { return entry.second.last_seen != now; });
    double raw = 0.0;
    if (spec_.type == PredictorSpec::Type::kNSigma) {
      moments_.Push(warmed_usage);
      // Mean before Stddev: Stddev may refresh the running moments.
      const double mean = moments_.Mean();
      raw = mean + spec_.n_sigma * moments_.Stddev();
    } else {
      // Idle intervals are real observations: push unconditionally.
      quantiles_.Push(static_cast<float>(warmed_usage));
      raw = quantiles_.Percentile((1.0 - spec_.target) * 100.0);
    }
    prediction_ = ClampPrediction(raw + warming_limit, usage_now, limit_sum);
  }
  double PredictPeak() const override { return prediction_; }
  void Reset() override {
    seen_.clear();
    moments_.Reset();
    quantiles_.Clear();
    prediction_ = 0.0;
  }
  std::string name() const override { return spec_.Name(); }

 private:
  struct TaskState {
    Interval samples = 0;
    Interval last_seen = -1;
  };

  PredictorSpec spec_;
  std::unordered_map<TaskId, TaskState> seen_;
  AggregateWindow moments_;
  IndexableWindow quantiles_;
  double prediction_ = 0.0;
};

// Flex: phi = min(1, margin * p-th percentile of the machine's windowed
// usage/limit ratio), 1 until the window holds min_num_samples ratios
// (arXiv:2006.01354). Empty-machine polls (0/0) push nothing.
class FlexPredictor : public PeakPredictor {
 public:
  explicit FlexPredictor(PredictorSpec spec)
      : spec_(std::move(spec)), ratios_(spec_.config.max_num_samples) {}

  void Observe(Interval /*now*/, std::span<const TaskSample> tasks) override {
    double usage_now = 0.0;
    double limit_sum = 0.0;
    for (const TaskSample& sample : tasks) {
      usage_now += sample.usage;
      limit_sum += sample.limit;
    }
    if (limit_sum > 0.0) {
      ratios_.Push(static_cast<float>(usage_now / limit_sum));
    }
    const double phi = ratios_.size() >= spec_.config.min_num_samples
                           ? std::min(1.0, spec_.margin * ratios_.Percentile(spec_.percentile))
                           : 1.0;
    prediction_ = ClampPrediction(phi * limit_sum, usage_now, limit_sum);
  }
  double PredictPeak() const override { return prediction_; }
  void Reset() override {
    ratios_.Clear();
    prediction_ = 0.0;
  }
  std::string name() const override { return spec_.Name(); }

 private:
  PredictorSpec spec_;
  IndexableWindow ratios_;
  double prediction_ = 0.0;
};

// Pointwise maximum over component predictors, folded from 0 (Section 4).
class MaxPredictor : public PeakPredictor {
 public:
  explicit MaxPredictor(std::vector<std::unique_ptr<PeakPredictor>> components)
      : components_(std::move(components)) {
    CRF_CHECK(!components_.empty());
  }
  void Observe(Interval now, std::span<const TaskSample> tasks) override {
    for (auto& component : components_) {
      component->Observe(now, tasks);
    }
  }
  double PredictPeak() const override {
    double peak = 0.0;
    for (const auto& component : components_) {
      peak = std::max(peak, component->PredictPeak());
    }
    return peak;
  }
  void Reset() override {
    for (auto& component : components_) {
      component->Reset();
    }
  }
  std::string name() const override {
    std::string out = "max(";
    for (size_t i = 0; i < components_.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += components_[i]->name();
    }
    return out + ")";
  }

 private:
  std::vector<std::unique_ptr<PeakPredictor>> components_;
};

// The reference twin of CreatePredictor. `spec` must be valid.
inline std::unique_ptr<PeakPredictor> CreateReferencePredictor(const PredictorSpec& spec) {
  CRF_CHECK(ValidatePredictorSpec(spec, nullptr));
  switch (spec.type) {
    case PredictorSpec::Type::kLimitSum:
      return std::make_unique<LimitSumPredictor>();
    case PredictorSpec::Type::kBorgDefault:
      return std::make_unique<BorgDefaultPredictor>(spec.phi);
    case PredictorSpec::Type::kRcLike:
    case PredictorSpec::Type::kAutopilot:
      return std::make_unique<PercentileSumPredictor>(spec);
    case PredictorSpec::Type::kNSigma:
    case PredictorSpec::Type::kChance:
      return std::make_unique<WarmedAggregatePredictor>(spec);
    case PredictorSpec::Type::kFlex:
      return std::make_unique<FlexPredictor>(spec);
    case PredictorSpec::Type::kMax: {
      std::vector<std::unique_ptr<PeakPredictor>> components;
      for (const PredictorSpec& component : spec.components) {
        components.push_back(CreateReferencePredictor(component));
      }
      return std::make_unique<MaxPredictor>(std::move(components));
    }
  }
  return nullptr;
}

}  // namespace crf::reference

#endif  // CRF_TESTS_REFERENCE_PREDICTORS_H_
