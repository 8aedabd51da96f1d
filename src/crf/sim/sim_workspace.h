// Per-thread scratch for the fused simulation engine.
//
// SimulateMachine runs once per machine per sweep point — millions of times
// in a full evaluation — so its working set (the machine roster, oracle
// buffers, the predictor instance itself) lives in a thread-local
// workspace. Buffers grow to the high-water size of the
// machines a thread has simulated and are reused, so the steady-state path
// performs zero heap allocations per machine.

#ifndef CRF_SIM_SIM_WORKSPACE_H_
#define CRF_SIM_SIM_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "crf/core/machine_roster.h"
#include "crf/core/oracle.h"
#include "crf/core/predictor_factory.h"
#include "crf/core/sweep_bank.h"
#include "crf/risk/risk_accumulator.h"

namespace crf {

struct SimWorkspace {
  // Oracle computation scratch and the per-machine oracle series (used when
  // no OracleCache is supplied).
  OracleScratch oracle_scratch;
  std::vector<double> oracle;

  // The machine's trace walk: event lists, resident set, and the sample
  // buffer handed to the predictor.
  MachineRoster roster;

  // Per-machine risk accounting (crf/risk), Reset() per machine. One for the
  // single-spec engine, one per spec for the multi-spec engine (grown to the
  // plan's spec count by SimulateMachineMulti, never shrunk).
  RiskAccumulator risk;
  std::vector<RiskAccumulator> multi_risk;

  // Returns a predictor for `spec`, reusing (via Reset) the previous
  // instance when the spec is unchanged — the common case when sweeping one
  // spec across all machines of a cell.
  PeakPredictor* GetPredictor(const PredictorSpec& spec);

  // Returns the thread's sweep bank attached to `plan`, re-attaching only
  // when the plan changed (detected by plan id, robust to address reuse).
  // The common case — every machine of a SimulateCellMulti call — is a
  // no-op returning the already-attached bank.
  SweepBank& GetSweepBank(const SweepPlan& plan);

  // The calling thread's workspace (one per thread, lazily created).
  static SimWorkspace& ThreadLocal();

 private:
  std::unique_ptr<PeakPredictor> predictor_;
  PredictorSpec predictor_spec_;
  SweepBank sweep_bank_;
  uint64_t sweep_plan_id_ = 0;  // 0 = never attached; real ids start at 1.
};

}  // namespace crf

#endif  // CRF_SIM_SIM_WORKSPACE_H_
