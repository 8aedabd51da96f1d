#include "crf/core/predictor_factory.h"

#include <cstdio>
#include <utility>

#include "crf/core/sweep_bank.h"
#include "crf/util/check.h"

namespace crf {

namespace {

// The PeakPredictor face of a one-spec SweepBank. The bank points at the
// plan, so the adapter is neither copied nor moved.
class BankPredictor final : public PeakPredictor {
 public:
  explicit BankPredictor(const PredictorSpec& spec) : plan_(std::span(&spec, 1)) {
    bank_.Attach(&plan_);
  }
  BankPredictor(const BankPredictor&) = delete;
  BankPredictor& operator=(const BankPredictor&) = delete;

  void Observe(Interval now, std::span<const TaskSample> tasks) override {
    bank_.Observe(now, tasks);
  }
  double PredictPeak() const override { return bank_.Predictions()[0]; }
  void Reset() override { bank_.BeginMachine(); }
  std::string name() const override { return plan_.spec(0).Name(); }

 private:
  SweepPlan plan_;
  SweepBank bank_;
};

bool Invalid(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// `components` counts the component specs seen so far across the tree.
bool Validate(const PredictorSpec& spec, int depth, int& components, std::string* error) {
  if (depth > kMaxSpecDepth) {
    return Invalid(error, "max() nesting deeper than " + std::to_string(kMaxSpecDepth));
  }
  if (spec.type != PredictorSpec::Type::kMax && !spec.components.empty()) {
    return Invalid(error, "only max() takes components");
  }
  // The comparisons are phrased so that NaN fails them.
  const bool percentile_ok = spec.percentile >= 0.0 && spec.percentile <= 100.0;
  switch (spec.type) {
    case PredictorSpec::Type::kLimitSum:
      return true;
    case PredictorSpec::Type::kBorgDefault:
      if (!(spec.phi > 0.0 && spec.phi <= 1.0)) {
        return Invalid(error, "borg-default phi must be in (0, 1]");
      }
      return true;
    case PredictorSpec::Type::kRcLike:
      if (!percentile_ok) {
        return Invalid(error, "rc-like percentile must be in [0, 100]");
      }
      break;
    case PredictorSpec::Type::kNSigma:
      if (!(spec.n_sigma > 0.0)) {
        return Invalid(error, "n-sigma n must be positive");
      }
      break;
    case PredictorSpec::Type::kAutopilot:
    case PredictorSpec::Type::kFlex:
      if (!percentile_ok || !(spec.margin >= 1.0)) {
        return Invalid(error, "percentile must be in [0, 100] and margin >= 1");
      }
      break;
    case PredictorSpec::Type::kChance:
      if (!(spec.target > 0.0 && spec.target < 1.0)) {
        return Invalid(error, "chance target must be in (0, 1)");
      }
      break;
    case PredictorSpec::Type::kMax:
      if (spec.components.empty()) {
        return Invalid(error, "max predictor needs components");
      }
      if (spec.components.size() > static_cast<size_t>(kMaxSpecComponents - components)) {
        return Invalid(error, "more than " + std::to_string(kMaxSpecComponents) +
                                  " components");
      }
      components += static_cast<int>(spec.components.size());
      for (const PredictorSpec& component : spec.components) {
        if (!Validate(component, depth + 1, components, error)) {
          return false;
        }
      }
      return true;
    default:
      return Invalid(error, "unknown predictor type");
  }
  // The usage-driven families window their history.
  if (spec.config.min_num_samples <= 0 ||
      spec.config.max_num_samples < spec.config.min_num_samples) {
    return Invalid(error, "warm-up must be positive and at most the history length");
  }
  return true;
}

}  // namespace

std::string PredictorSpec::Name() const {
  char buffer[48] = "";
  switch (type) {
    case Type::kLimitSum:
      return "limit-sum";
    case Type::kBorgDefault:
      std::snprintf(buffer, sizeof(buffer), "borg-default-%.2f", phi);
      break;
    case Type::kRcLike:
      std::snprintf(buffer, sizeof(buffer), "rc-like-p%.0f", percentile);
      break;
    case Type::kNSigma:
      std::snprintf(buffer, sizeof(buffer), "n-sigma-%.0f", n_sigma);
      break;
    case Type::kAutopilot:
      std::snprintf(buffer, sizeof(buffer), "autopilot-p%.0f-m%.2f", percentile, margin);
      break;
    case Type::kChance:
      std::snprintf(buffer, sizeof(buffer), "chance-e%g", target);
      break;
    case Type::kFlex:
      std::snprintf(buffer, sizeof(buffer), "flex-p%g-m%g", percentile, margin);
      break;
    case Type::kMax: {
      std::string out = "max(";
      for (size_t i = 0; i < components.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        out += components[i].Name();
      }
      return out + ")";
    }
  }
  return buffer;
}

PredictorSpec LimitSumSpec() {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kLimitSum;
  return spec;
}

PredictorSpec BorgDefaultSpec(double phi) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kBorgDefault;
  spec.phi = phi;
  return spec;
}

PredictorSpec RcLikeSpec(double percentile, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kRcLike;
  spec.percentile = percentile;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec NSigmaSpec(double n, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kNSigma;
  spec.n_sigma = n;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec AutopilotSpec(double percentile, double margin, Interval warmup,
                            Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kAutopilot;
  spec.percentile = percentile;
  spec.margin = margin;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec ChanceSpec(double target, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kChance;
  spec.target = target;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec FlexSpec(double percentile, double margin, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kFlex;
  spec.percentile = percentile;
  spec.margin = margin;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec MaxSpec(std::vector<PredictorSpec> components) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kMax;
  spec.components = std::move(components);
  return spec;
}

PredictorSpec SimulationMaxSpec() { return MaxSpec({NSigmaSpec(5.0), RcLikeSpec(99.0)}); }

PredictorSpec ProductionMaxSpec() { return MaxSpec({NSigmaSpec(3.0), RcLikeSpec(80.0)}); }

bool ValidatePredictorSpec(const PredictorSpec& spec, std::string* error) {
  int components = 0;
  return Validate(spec, 0, components, error);
}

std::unique_ptr<PeakPredictor> CreatePredictor(const PredictorSpec& spec) {
  return std::make_unique<BankPredictor>(spec);
}

}  // namespace crf
