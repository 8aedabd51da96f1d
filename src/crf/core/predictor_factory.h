// Declarative predictor construction.
//
// The simulator runs many predictor configurations over the same trace (the
// paper's Figs 8-12 are parameter sweeps); a PredictorSpec is a value type
// describing one configuration. Every built-in family is evaluated by one
// engine, SweepBank (crf/core/sweep_bank.h): the batch simulator runs whole
// spec grids through it, and the serve tier and the cluster simulator each
// compile one SweepPlan and give every machine a bank on it.
// CreatePredictor wraps a one-spec bank in the PeakPredictor interface, the
// extension point for standalone callers (examples, microbenchmarks).

#ifndef CRF_CORE_PREDICTOR_FACTORY_H_
#define CRF_CORE_PREDICTOR_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "crf/core/predictor.h"

namespace crf {

struct PredictorSpec {
  enum class Type {
    kLimitSum,
    kBorgDefault,
    kRcLike,
    kNSigma,
    kAutopilot,
    kChance,
    kFlex,
    kMax,  // Keep last: checkpoint spec encoding relies on it.
  };

  Type type = Type::kLimitSum;
  double phi = 0.9;          // borg-default scale factor
  double percentile = 99.0;  // rc-like / flex percentile
  double n_sigma = 5.0;      // n-sigma multiplier
  double margin = 1.10;      // autopilot / flex safety margin
  double target = 0.01;      // chance-constrained violation probability
  PredictorConfig config;    // warm-up / history (usage-driven predictors)
  std::vector<PredictorSpec> components;  // max components

  // Human-readable name, e.g. "max(n-sigma-5,rc-like-p99)"; what
  // CreatePredictor(spec)->name() reports.
  std::string Name() const;

  // Structural equality over every knob (names alone are ambiguous: they omit
  // warm-up/history). SweepPlan deduplicates nodes by it.
  bool operator==(const PredictorSpec&) const = default;
};

// Convenience constructors with the paper's defaults.
PredictorSpec LimitSumSpec();
PredictorSpec BorgDefaultSpec(double phi = 0.9);
PredictorSpec RcLikeSpec(double percentile = 99.0,
                         Interval warmup = 2 * kIntervalsPerHour,
                         Interval history = 10 * kIntervalsPerHour);
PredictorSpec NSigmaSpec(double n = 5.0, Interval warmup = 2 * kIntervalsPerHour,
                         Interval history = 10 * kIntervalsPerHour);
// Autopilot-like per-task limit baseline: sum of min(limit, margin * p-th
// percentile of each task's recent usage). Defaults follow Autopilot's 98th
// percentile with a 10% margin.
PredictorSpec AutopilotSpec(double percentile = 98.0, double margin = 1.10,
                            Interval warmup = 2 * kIntervalsPerHour,
                            Interval history = 10 * kIntervalsPerHour);
// Chance-constrained peak: the (1 - target) quantile of the windowed
// machine-level warmed usage, targeting a per-interval violation probability
// of `target`.
PredictorSpec ChanceSpec(double target = 0.01, Interval warmup = 2 * kIntervalsPerHour,
                         Interval history = 10 * kIntervalsPerHour);
// Flex-style adaptive phi: margin * p-th percentile of the machine's
// windowed usage/limit ratio, capped at 1, applied to the limit sum.
PredictorSpec FlexSpec(double percentile = 95.0, double margin = 1.2,
                       Interval warmup = 2 * kIntervalsPerHour,
                       Interval history = 10 * kIntervalsPerHour);
PredictorSpec MaxSpec(std::vector<PredictorSpec> components);

// The simulation-tuned max predictor of Section 5.4:
// max(n-sigma(5), rc-like(p99)) with 2h warm-up and 10h history.
PredictorSpec SimulationMaxSpec();
// The production deployment configuration of Section 6.1:
// max(n-sigma(3), rc-like(p80)) with 2h warm-up and 10h history.
PredictorSpec ProductionMaxSpec();

// Size limits on a spec tree, shared by the spec parser, SweepPlan and the
// checkpoint reader so every accepted spec can be sealed and resumed: max()
// nests at most kMaxSpecDepth levels deep, and a tree holds at most
// kMaxSpecComponents component specs in total (every spec inside a max(),
// nested max() nodes included).
inline constexpr int kMaxSpecDepth = 8;
inline constexpr int kMaxSpecComponents = 64;

// Returns true when `spec` is a valid configuration: every knob its family
// reads is in range, max() and only max() has components, and the tree fits
// the limits above. Otherwise returns false and, when `error` is non-null, stores the
// first violation found.
bool ValidatePredictorSpec(const PredictorSpec& spec, std::string* error);

// A fresh predictor for one machine: a PeakPredictor over a one-spec
// SweepBank, so it computes exactly what SimulateCell does for the spec.
// CHECK-fails on a spec ValidatePredictorSpec rejects.
std::unique_ptr<PeakPredictor> CreatePredictor(const PredictorSpec& spec);

}  // namespace crf

#endif  // CRF_CORE_PREDICTOR_FACTORY_H_
