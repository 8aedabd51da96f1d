// Online Borg-like cell simulation.
//
// Unlike the trace-driven simulator (crf/sim), which replays fixed
// placements, this closes the loop: the predictor's published free capacity
// drives the scheduler's placement decisions, which change machine load,
// which changes future predictions. This is the substrate for the paper's
// production experiments — the Fig 3 violation-vs-latency study and the
// Section 6 A/B experiment — which cannot be expressed as trace replay.
//
// Per interval: (1) machines step usage / sample latency / publish
// predictions — sharded across the thread pool, since machines are
// independent within a step; (2) the scheduler ingests the published free
// capacities as per-machine deltas into its capacity index; (3) new jobs
// arrive and the pending queue is placed (feasibility = advertised free
// capacity fits the task limit; packing policy is a knob).
//
// Determinism contract: results are bit-identical for a given seed at any
// thread count. Machine steps draw only from per-machine RNG streams forked
// at construction; all shared-state writes during the sharded phase are
// per-machine slots; cross-machine reductions (resident-task counts) merge
// per-shard partials in slot order after the join; and the
// arrival/sampling/scheduling phase is serial. The loop itself lives in
// cell_sim_loop.h, templated on the placer: the differential tests run it
// with the linear-scan reference scheduler in tests/reference and compare
// against this build byte for byte.

#ifndef CRF_CLUSTER_CELL_SIM_H_
#define CRF_CLUSTER_CELL_SIM_H_

#include <string>
#include <vector>

#include "crf/cluster/machine_series.h"
#include "crf/cluster/scheduler.h"
#include "crf/core/predictor_factory.h"
#include "crf/trace/cell_profile.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"
#include "crf/util/time_grid.h"

namespace crf {

struct ClusterSimOptions {
  // The paper's production experiment runs 32 days.
  Interval num_intervals = 32 * kIntervalsPerDay;
  // Metrics should skip this initial ramp-up (empty cell filling up).
  Interval warmup = 2 * kIntervalsPerDay;
  PredictorSpec predictor = BorgDefaultSpec();
  PackingPolicy packing = PackingPolicy::kBestFit;
  // Pending tasks older than this are abandoned (counted, not placed).
  Interval pending_timeout = kIntervalsPerDay;
  // Pool the machine step loop runs on; a 1-thread pool runs it inline on
  // the caller. nullptr uses ThreadPool::Default().
  ThreadPool* pool = nullptr;
};

struct ClusterSimResult {
  std::string cell_name;
  std::string predictor_name;
  Interval warmup = 0;

  // The as-executed trace: placements chosen by the live scheduler, usage as
  // generated. Enables post-hoc oracle analysis with crf/core/oracle.
  CellTrace trace;

  // Per machine, per interval (flat interval-major matrices).
  MachineIntervalSeries predictions;
  MachineIntervalSeries latencies;
  MachineIntervalSeries demand_mean;  // mean within-interval demand
  MachineIntervalSeries limit_sum;    // sum of resident limits

  int64_t tasks_placed = 0;
  int64_t tasks_timed_out = 0;
  // Sum over intervals of pending-queue length (scheduling delay pressure).
  int64_t pending_task_intervals = 0;
  // Scheduler::Place calls, including retries that found no machine (the
  // denominator for placements/sec throughput accounting).
  int64_t placement_attempts = 0;
};

ClusterSimResult RunClusterSim(const CellProfile& profile, const ClusterSimOptions& options,
                               const Rng& rng);

}  // namespace crf

#endif  // CRF_CLUSTER_CELL_SIM_H_
