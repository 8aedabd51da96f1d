#include "crf/sim/simulator.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <vector>

#include "crf/core/machine_roster.h"
#include "crf/sim/sim_workspace.h"
#include "crf/util/check.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

// The oracle depends only on (cell, machine, horizon, kind): take the shared
// memoized series when a cache is supplied, otherwise compute into the
// workspace buffers. `cached` keeps the memo alive for the caller's pass.
std::span<const double> FetchOracle(const CellTrace& cell, int machine_index,
                                    const SimOptions& options, SimWorkspace& ws,
                                    OracleCache::Series& cached) {
  const OracleKind kind =
      options.use_total_usage_oracle ? OracleKind::kTotalUsage : OracleKind::kPeak;
  if (options.oracle_cache != nullptr) {
    cached = options.oracle_cache->GetOrCompute(cell, machine_index, options.horizon, kind);
    return *cached;
  }
  ComputeOracleInto(cell, machine_index, options.horizon, kind, ws.oracle_scratch, ws.oracle);
  return ws.oracle;
}

// The per-machine trace walk: it runs through the workspace roster
// (crf/core/machine_roster.h), and `score_tick(tau, roster, oracle_value)`
// scores each interval.
template <typename ScoreTick>
void WalkMachine(const CellTrace& cell, int machine_index, const SimOptions& options,
                 SimWorkspace& ws, ScoreTick score_tick) {
  OracleCache::Series cached;
  const std::span<const double> oracle = FetchOracle(cell, machine_index, options, ws, cached);
  const MachineTaskColumns cols(cell);
  MachineRoster& roster = ws.roster;
  roster.StartTraceWalk(cols, cell.machine_tasks(machine_index));
  for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
    roster.AdvanceTrace(cols, tau);
    score_tick(tau, roster, oracle[tau]);
  }
}

// Machines are reduced in at most this many contiguous blocks. The count is
// fixed, never the pool size, so the cell series have the same bits however
// many threads run them.
constexpr int kReduceBlocks = 64;

// Runs `simulate(m, series)` for every machine on the options' pool and
// returns the `num_series` per-interval series summed over all machines.
// Machines are cut into contiguous blocks by the stream replayer's shard
// rule; a block sums its machines, in index order, into its own partial
// series, and the partials are added to the total in block order. Every
// addition is thus fixed by the cell alone, parallel or not. A partial is
// folded in and freed as soon as every earlier block has been, so only about
// one partial per thread is alive at a time.
template <typename SimulateOne>
std::vector<std::vector<double>> RunMachines(const CellTrace& cell, const SimOptions& options,
                                             int num_series, SimulateOne simulate) {
  using Series = std::vector<std::vector<double>>;
  CRF_CHECK_GT(cell.num_intervals, 0);
  const int num_machines = cell.num_machines();
  const int block_size = std::max(1, (num_machines + kReduceBlocks - 1) / kReduceBlocks);
  const int num_blocks = (num_machines + block_size - 1) / block_size;
  const std::vector<double> zeros(cell.num_intervals, 0.0);
  Series total(num_series, zeros);

  std::mutex mutex;  // Guards `finished`, `next_fold` and `total`.
  std::vector<Series> finished(num_blocks);
  int next_fold = 0;
  auto run_blocks = [&](int /*slot*/, int begin, int end) {
    for (int b = begin; b < end; ++b) {
      Series partial(num_series, zeros);
      for (int m = b * block_size; m < std::min((b + 1) * block_size, num_machines); ++m) {
        simulate(m, partial);
      }
      const std::lock_guard<std::mutex> lock(mutex);
      finished[b] = std::move(partial);
      for (; next_fold < num_blocks && !finished[next_fold].empty(); ++next_fold) {
        for (int i = 0; i < num_series; ++i) {
          for (Interval t = 0; t < cell.num_intervals; ++t) {
            total[i][t] += finished[next_fold][i][t];
          }
        }
        finished[next_fold] = Series();
      }
    }
  };
  ThreadPool& pool = options.pool != nullptr ? *options.pool : ThreadPool::Default();
  pool.ParallelForRanges(num_blocks, 1, run_blocks);
  return total;
}

// One machine through `plan`, the walk every entry point shares: the
// SweepBank answers every spec per interval. Accumulates the machine's
// per-interval limit sum (spec-independent) into `cell_limit` and spec s's
// predictions into `cell_predictions[s]`, each when given, and finalizes
// spec s's metrics into `metrics_out(s)`.
template <typename MetricsOut>
void SimulatePlanMachine(const CellTrace& cell, int machine_index, const SweepPlan& plan,
                         const SimOptions& options, std::vector<double>* cell_limit,
                         std::span<std::vector<double>> cell_predictions,
                         MetricsOut metrics_out) {
  const int num_specs = plan.num_specs();
  SimWorkspace& ws = SimWorkspace::ThreadLocal();
  SweepBank& bank = ws.GetSweepBank(plan);
  bank.BeginMachine();
  if (ws.risk.size() < static_cast<size_t>(num_specs)) {
    ws.risk.resize(num_specs);
  }
  for (int s = 0; s < num_specs; ++s) {
    ws.risk[s].Reset();
  }

  WalkMachine(cell, machine_index, options, ws,
              [&](Interval tau, const MachineRoster& roster, double oracle_value) {
                bank.Observe(tau, roster.samples());
                ScoreTick(tau, bank.Predictions(), oracle_value, roster.limit_sum(),
                          !roster.empty(), ws.risk, cell_limit, cell_predictions);
              });

  for (int s = 0; s < num_specs; ++s) {
    FinalizeMachineMetrics(ws.risk[s], machine_index, cell.num_intervals, metrics_out(s));
  }
}

}  // namespace

MachineMetrics SimulateMachine(const CellTrace& cell, int machine_index,
                               const PredictorSpec& spec, const SimOptions& options,
                               std::vector<double>* cell_limit,
                               std::vector<double>* cell_prediction) {
  MachineMetrics metrics;
  SimulatePlanMachine(cell, machine_index, SimWorkspace::ThreadLocal().SinglePlan(spec),
                      options, cell_limit,
                      cell_prediction != nullptr ? std::span(cell_prediction, 1)
                                                 : std::span<std::vector<double>>(),
                      [&](int) -> MachineMetrics& { return metrics; });
  return metrics;
}

SimResult SimulateCell(const CellTrace& cell, const PredictorSpec& spec,
                       const SimOptions& options) {
  return std::move(SimulateCellMulti(cell, std::span(&spec, 1), options)[0]);
}

std::vector<SimResult> SimulateCellMulti(const CellTrace& cell,
                                         std::span<const PredictorSpec> specs,
                                         const SimOptions& options) {
  CRF_CHECK_GT(cell.num_intervals, 0);
  if (specs.empty()) {
    return {};
  }
  const SweepPlan plan(specs);
  const int num_specs = plan.num_specs();
  std::vector<SimResult> results(num_specs);
  for (int s = 0; s < num_specs; ++s) {
    results[s].cell_name = cell.name;
    results[s].predictor_name = plan.spec(s).Name();
    results[s].machines.resize(cell.num_machines());
  }
  const std::vector<std::vector<double>> series = RunMachines(
      cell, options, 1 + num_specs, [&](int m, std::vector<std::vector<double>>& partial) {
        SimulatePlanMachine(cell, m, plan, options, &partial[0],
                            std::span(partial).subspan(1),
                            [&](int s) -> MachineMetrics& { return results[s].machines[m]; });
      });
  for (int s = 0; s < num_specs; ++s) {
    results[s].cell_savings_series = CellSavingsSeries(series[0], series[1 + s]);
  }
  return results;
}

}  // namespace crf
