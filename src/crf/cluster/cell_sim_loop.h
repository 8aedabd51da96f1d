// The closed-loop cell simulation loop behind RunClusterSim (cell_sim.h),
// templated on the placement engine. Internal: cell_sim.cc instantiates it
// with Scheduler; cluster_sim_differential_test instantiates it with the
// linear-scan reference scheduler. Through a template parameter rather than
// a virtual call, so the placement hot path is the same code either way.

#ifndef CRF_CLUSTER_CELL_SIM_LOOP_H_
#define CRF_CLUSTER_CELL_SIM_LOOP_H_

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "crf/cluster/cell_sim.h"
#include "crf/cluster/machine.h"
#include "crf/trace/job_sampler.h"
#include "crf/util/check.h"

namespace crf {
namespace cell_sim_internal {

// One arriving job: the template plus the placements of its already-placed
// sibling tasks (anti-affinity spreading). Shared by every sibling's queue
// entry so wide jobs keep a single copy of the parameter block.
struct PendingJob {
  JobTemplate job;
  std::vector<int> machines;
};

// One task waiting for placement.
struct PendingTask {
  std::shared_ptr<PendingJob> job;
  Interval enqueued = 0;
};

// Per-shard partial reduction of the machine step loop, padded to a cache
// line so concurrent shards don't false-share.
struct alignas(64) ShardAccum {
  int64_t resident_tasks = 0;
};

}  // namespace cell_sim_internal

// RunClusterSim's loop with the placement engine as a template parameter:
// `Placer` is constructed from (PackingPolicy, Rng) and provides Reset,
// Publish and Place with Scheduler's semantics and RNG-draw rule.
template <typename Placer>
ClusterSimResult RunClusterSimWith(const CellProfile& profile, const ClusterSimOptions& options,
                                   const Rng& rng) {
  using cell_sim_internal::PendingJob;
  using cell_sim_internal::PendingTask;
  using cell_sim_internal::ShardAccum;

  CRF_CHECK_GT(options.num_intervals, 0);
  CRF_CHECK_GE(options.warmup, 0);
  CRF_CHECK_LT(options.warmup, options.num_intervals);

  const int num_machines = profile.num_machines;
  const Interval num_intervals = options.num_intervals;

  ClusterSimResult result;
  result.cell_name = profile.name;
  result.predictor_name = options.predictor.Name();
  result.warmup = options.warmup;
  // The as-executed trace accumulates in a builder (machines append usage
  // concurrently to distinct tasks during the sharded step) and is sealed
  // into the immutable columnar form once the run completes.
  CellTraceBuilder trace(profile.name, num_intervals, num_machines);

  JobSampler sampler(profile, rng.Fork(0x6a6f62));
  Rng arrival_rng = rng.Fork(0x617272);
  Placer scheduler(options.packing, rng.Fork(0x736368));
  scheduler.Reset(num_machines);
  const std::vector<double> shared_load =
      BuildSharedLoadSeries(profile, num_intervals, rng.Fork(0x757367));

  // One predictor plan for the cell; every machine runs its own bank on it.
  const SweepPlan plan(std::span(&options.predictor, 1));
  std::vector<ClusterMachine> machines;
  machines.reserve(num_machines);
  for (int m = 0; m < num_machines; ++m) {
    trace.set_machine_capacity(m, profile.machine_capacity);
    trace.mutable_true_peak(m).assign(num_intervals, 0.0f);
    machines.emplace_back(m, profile.machine_capacity, plan, rng.Fork(0x6d000000 + m));
  }

  result.predictions.Assign(num_machines, num_intervals);
  result.latencies.Assign(num_machines, num_intervals);
  result.demand_mean.Assign(num_machines, num_intervals);
  result.limit_sum.Assign(num_machines, num_intervals);

  ThreadPool& pool = options.pool != nullptr ? *options.pool : ThreadPool::Default();
  const int slots = pool.num_threads();
  // A few blocks per thread balances steal granularity against shared-counter
  // traffic on this fine-grained, every-interval loop. Rounding the block up
  // to 16 machines aligns claim boundaries with whole cache lines of the
  // float series matrices (16 floats per 64-byte line), so two threads never
  // split a line of predictions/latencies/demand/limit between them.
  int block = std::max(1, num_machines / (4 * slots));
  if (block > 16) {
    block = (block + 15) & ~15;
  }
  std::vector<ShardAccum> shard_accum(slots);

  std::deque<PendingTask> pending;
  std::vector<double> free_capacity(num_machines, 0.0);
  int64_t resident = 0;
  TaskId next_task_id = 1;
  // Budget of continuously-running services (they never depart, so an
  // unbounded Bernoulli would overshoot the population target during the
  // high-churn ramp-up).
  int64_t service_budget = static_cast<int64_t>(
      profile.service_fraction * profile.tasks_per_machine * num_machines);

  for (Interval t = 0; t < num_intervals; ++t) {
    // (1) Machines advance; Borglets publish predictions. Machines are
    // independent within a step: each draws only from its own RNG fork and
    // writes only its own slots (trace rows, series columns, free-capacity
    // entry), so the shard order cannot affect the outcome.
    for (ShardAccum& accum : shard_accum) {
      accum.resident_tasks = 0;
    }
    const auto step_machines = [&](int slot, int begin, int end) {
      // Accumulate the shard partial in a register-resident local and write
      // the padded slot once per claimed range, not once per machine.
      int64_t resident_tasks = 0;
      for (int m = begin; m < end; ++m) {
        const ClusterMachine::StepStats stats = machines[m].Step(t, shared_load[t], trace);
        result.predictions.at(m, t) = static_cast<float>(stats.prediction);
        result.latencies.at(m, t) = static_cast<float>(stats.latency);
        result.demand_mean.at(m, t) = static_cast<float>(stats.demand_mean);
        result.limit_sum.at(m, t) = static_cast<float>(stats.limit_sum);
        free_capacity[m] = stats.free_capacity;
        resident_tasks += stats.resident_tasks;
      }
      shard_accum[slot].resident_tasks += resident_tasks;
    };
    pool.ParallelForRanges(num_machines, block, step_machines);
    // Slot-ordered reduction of the per-shard partials (integer sums are
    // exact, but merging in a fixed order keeps the recipe uniform with the
    // trace simulator's float reductions).
    resident = 0;
    for (const ShardAccum& accum : shard_accum) {
      resident += accum.resident_tasks;
    }

    if (t + 1 >= num_intervals) {
      break;  // Tasks placed now would start after the simulation ends.
    }

    // (2) The scheduler ingests the published view as per-machine deltas
    // into its capacity index (no vector copy, no full rebuild).
    for (int m = 0; m < num_machines; ++m) {
      scheduler.Publish(m, free_capacity[m]);
    }

    // (3) New arrivals join the pending queue...
    int arrivals = arrival_rng.Poisson(ArrivalRate(profile, t, resident));
    while (arrivals > 0) {
      auto job = std::make_shared<PendingJob>();
      job->job = sampler.NextJob();
      const int num_tasks = std::min(arrivals, sampler.SampleTasksPerJob());
      for (int i = 0; i < num_tasks; ++i) {
        pending.push_back({job, t});
      }
      arrivals -= num_tasks;
    }

    // ...and the queue is drained oldest-first against the advertised
    // capacities. Tasks that cannot be placed stay queued; stale ones are
    // abandoned.
    size_t scan = pending.size();
    while (scan-- > 0) {
      PendingTask entry = std::move(pending.front());
      pending.pop_front();
      if (t - entry.enqueued >= options.pending_timeout) {
        ++result.tasks_timed_out;
        continue;
      }
      ++result.placement_attempts;
      const int machine = scheduler.Place(entry.job->job.limit, entry.job->machines);
      if (machine < 0) {
        pending.push_back(std::move(entry));  // Retry next interval.
        continue;
      }
      entry.job->machines.push_back(machine);
      const Interval start = t + 1;
      // Continuously-running services enter while the cell ramps up (the
      // online analogue of the trace generator's initial service
      // population), bounded by the service share of the population target.
      const bool service = service_budget > 0 && t < options.warmup &&
                           arrival_rng.Bernoulli(profile.service_fraction);
      if (service) {
        --service_budget;
      }
      const Interval runtime = sampler.SampleRuntime(service, start, num_intervals);
      const int32_t trace_index =
          trace.AddTask(next_task_id++, entry.job->job.job_id, machine, start,
                        entry.job->job.limit, entry.job->job.sched_class);
      machines[machine].StartTask(trace, trace_index,
                                  sampler.JitterTaskParams(entry.job->job.params), start,
                                  runtime);
      ++result.tasks_placed;
    }
    result.pending_task_intervals += static_cast<int64_t>(pending.size());
  }

  result.trace = trace.Seal();
  return result;
}

}  // namespace crf

#endif  // CRF_CLUSTER_CELL_SIM_LOOP_H_
