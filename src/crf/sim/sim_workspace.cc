#include "crf/sim/sim_workspace.h"

namespace crf {

SweepBank& SimWorkspace::GetSweepBank(const SweepPlan& plan) {
  if (sweep_plan_id_ != plan.id()) {
    sweep_bank_.Attach(&plan);
    sweep_plan_id_ = plan.id();
  }
  return sweep_bank_;
}

const SweepPlan& SimWorkspace::SinglePlan(const PredictorSpec& spec) {
  if (single_plan_ == nullptr || single_plan_->spec(0) != spec) {
    single_plan_ = std::make_unique<SweepPlan>(std::span(&spec, 1));
  }
  return *single_plan_;
}

SimWorkspace& SimWorkspace::ThreadLocal() {
  static thread_local SimWorkspace workspace;
  return workspace;
}

}  // namespace crf
