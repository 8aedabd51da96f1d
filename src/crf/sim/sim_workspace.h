// Per-thread scratch for the fused simulation engine.
//
// The per-machine walk runs once per machine per simulation — millions of
// times in a full evaluation — so its working set (the machine roster,
// oracle buffers, the sweep bank itself) lives in a thread-local
// workspace. Buffers grow to the high-water size of the machines a thread
// has simulated and are reused, so the steady-state path allocates nothing
// per interval (a task arriving after a departure allocates its windows).

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
  // buffer handed to the sweep bank.
  MachineRoster roster;

  // Per-machine risk accounting (crf/risk), one per spec of the running
  // plan, Reset() per machine (grown to the plan's spec count, never
  // shrunk).
  std::vector<RiskAccumulator> risk;

  // Returns the thread's sweep bank attached to `plan`, re-attaching only
  // when the plan changed (detected by plan id, robust to address reuse).
  // The common case — every machine of a SimulateCellMulti call — is a
  // no-op returning the already-attached bank.
  SweepBank& GetSweepBank(const SweepPlan& plan);

  // A one-spec plan for `spec`, rebuilt only when the spec changes, so
  // SimulateMachine calls for one spec keep reusing one attached bank.
  const SweepPlan& SinglePlan(const PredictorSpec& spec);

  // The calling thread's workspace (one per thread, lazily created).
  static SimWorkspace& ThreadLocal();

 private:
  SweepBank sweep_bank_;
  uint64_t sweep_plan_id_ = 0;  // 0 = never attached; real ids start at 1.
  std::unique_ptr<SweepPlan> single_plan_;
};

}  // namespace crf

#endif  // CRF_SIM_SIM_WORKSPACE_H_
