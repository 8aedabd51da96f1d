// The trace-driven overcommit simulator (paper Section 5.1.1, Fig 5).
//
// Machines are simulated independently. For each machine and each 5-minute
// instant tau, the simulated predictor sees only the historic usage of the
// tasks resident at tau (U_i[t], t <= tau) and publishes a predicted peak;
// the simulator computes the clairvoyant peak oracle from the future usage
// (U_i[t], t >= tau) and compares. Scheduling decisions are NOT simulated:
// placements come fixed from the trace, exactly as in the paper's simulator.
//
// The engine is one fused, allocation-free pass per machine, shared by every
// entry point below: the resident set and its limit sum are maintained
// incrementally by the MachineRoster trace walk (crf/core/machine_roster.h;
// work happens only at events, not every interval), predictions come from a
// SweepBank (crf/core/sweep_bank.h) running the call's spec plan — one spec
// for SimulateCell and SimulateMachine, a whole grid for SimulateCellMulti —
// and all scratch lives in a thread-local SimWorkspace. Cell
// aggregation sums fixed machine blocks in block order, so the cell series
// have the same bits serial or parallel at any pool size. The peak oracle —
// which depends only on (cell, machine, horizon), never on the predictor —
// can be memoized across sweep points through SimOptions::oracle_cache.

#ifndef CRF_SIM_SIMULATOR_H_
#define CRF_SIM_SIMULATOR_H_

#include <span>
#include <vector>

#include "crf/core/oracle.h"
#include "crf/core/predictor_factory.h"
#include "crf/sim/metrics.h"
#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

class ThreadPool;

struct SimOptions {
  // Oracle forecast horizon; Section 5.2 settles on 24 hours.
  Interval horizon = kIntervalsPerDay;
  // Ablation: use the unfiltered total-usage oracle instead of the exact
  // arrival-filtered oracle.
  bool use_total_usage_oracle = false;
  // The pool machines are sharded across; nullptr uses ThreadPool::Default()
  // and a ThreadPool(1) runs on the calling thread. Never affects results.
  ThreadPool* pool = nullptr;
  // Optional shared oracle memo. Sweeps running many predictor specs over
  // the same cell should pass one cache for all SimulateCell calls: the
  // oracle is predictor-independent, so every sweep point after the first
  // hits the cache. The cache (and the cells it has seen) must outlive the
  // simulation; see OracleCache for the invalidation contract.
  OracleCache* oracle_cache = nullptr;
};

// Runs one predictor configuration over every machine of `cell`: a one-spec
// SimulateCellMulti.
SimResult SimulateCell(const CellTrace& cell, const PredictorSpec& spec,
                       const SimOptions& options = {});

// Runs a whole predictor grid over `cell` in ONE trace pass per machine,
// returning one SimResult per spec (input order), each bit-identical to
// what the corresponding SimulateCell call produces. The SweepBank shares
// per-task percentile windows, aggregate moments, and the per-interval limit
// sum across all sweep points, so the per-machine cost is one trace walk
// plus one cheap query per spec instead of |specs| independent walks with
// |specs| copies of the window state.
// This is the engine behind the paper's parameter sweeps (Figs 8-10).
std::vector<SimResult> SimulateCellMulti(const CellTrace& cell,
                                         std::span<const PredictorSpec> specs,
                                         const SimOptions& options = {});

// Simulates a single machine with a one-spec plan through the same walk;
// exposed for tests and custom drivers.
// `cell_limit` / `cell_prediction`, when non-null, accumulate the machine's
// per-interval limit sum and prediction (caller provides zeroed series).
MachineMetrics SimulateMachine(const CellTrace& cell, int machine_index,
                               const PredictorSpec& spec, const SimOptions& options,
                               std::vector<double>* cell_limit,
                               std::vector<double>* cell_prediction);

}  // namespace crf

#endif  // CRF_SIM_SIMULATOR_H_
