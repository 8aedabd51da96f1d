#include "crf/trace/generator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "crf/index/capacity_index.h"
#include "crf/trace/job_sampler.h"
#include "crf/trace/stream_writer.h"
#include "crf/trace/trace_builder.h"
#include "crf/trace/workload_model.h"
#include "crf/util/check.h"

namespace crf {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

// Generator-side sharded placement (DESIGN.md §"Sharded placement"): one
// headroom treap per contiguous machine shard. The treap key is the
// remaining allocation headroom target_alloc_ratio*capacity - alloc, so the
// feasibility filter ("which machines can still take this limit") is a rank
// query; the packing objective among the probed candidates stays the
// generator's weighted worst-fit ratio alloc/(capacity*weight), with the
// same prefer-unused anti-affinity rule as the global PlaceTask pass.
//
// Batches place in three phases mirroring crf/cluster/sharded_scheduler:
// serial routing by job id, a parallel shard phase (each shard advances only
// its own treap/RNG), and a serial shard-order steal phase for requests that
// missed their home shard — richest-summary-first with a try-everything
// fallback, so a task drops only if no shard can hold it. For a fixed
// (seed, shards) the placements are byte-identical at any thread count.
class ShardedPlacer {
 public:
  struct Request {
    double limit = 0.0;
    std::vector<int>* used = nullptr;  // job's machines; appended on success
    uint64_t affinity_key = 0;
  };

  ShardedPlacer(const CellProfile& profile, const GeneratorOptions& options,
                const CellTraceBuilder& builder, std::vector<double>& alloc,
                const std::vector<double>& machine_weight, const Rng& rng)
      : options_(options),
        builder_(builder),
        alloc_(alloc),
        weight_(machine_weight),
        target_ratio_(profile.target_alloc_ratio) {
    const int num_machines = profile.num_machines;
    const int64_t num_shards = options.placement_shards;
    CRF_CHECK_GE(num_shards, 1);
    CRF_CHECK_GE(options.placement_rebalance_interval, 1);
    shards_.reserve(num_shards);
    for (int s = 0; s < static_cast<int>(num_shards); ++s) {
      auto shard = std::make_unique<Shard>();
      shard->base = static_cast<int>(static_cast<int64_t>(num_machines) * s / num_shards);
      const int end =
          static_cast<int>(static_cast<int64_t>(num_machines) * (s + 1) / num_shards);
      shard->count = end - shard->base;
      shard->rng = rng.Fork(0x73686100ULL + static_cast<uint64_t>(s));  // "sha" + s
      shard->headroom.resize(shard->count);
      for (int i = 0; i < shard->count; ++i) {
        shard->headroom[i] = Headroom(shard->base + i);
      }
      shard->tree.Assign(shard->headroom);
      if (shard->count > 0) {
        nonempty_.push_back(s);
      }
      shards_.push_back(std::move(shard));
    }
    tried_.assign(shards_.size(), 0);
    RefreshSummaries();
  }

  // Re-syncs one machine's headroom after its alloc changed outside a
  // placement (departure credits).
  void Refresh(int machine) {
    Shard& shard = ShardOf(machine);
    const int local = machine - shard.base;
    shard.headroom[local] = Headroom(machine);
    shard.tree.Update(local, shard.headroom[local]);
  }

  void PlaceBatch(std::span<const Request> requests, std::span<int> results,
                  ThreadPool* pool) {
    CRF_CHECK_EQ(requests.size(), results.size());
    ++batches_;
    const bool rebalance_due = batches_ % options_.placement_rebalance_interval == 0;
    for (size_t i = 0; i < results.size(); ++i) {
      results[i] = -1;
    }
    if (requests.empty() || nonempty_.empty()) {
      if (rebalance_due && !nonempty_.empty()) {
        RefreshSummaries();
      }
      return;
    }
    for (const int s : nonempty_) {
      shards_[s]->routed.clear();
      shards_[s]->overflow.clear();
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      const int s = nonempty_[requests[i].affinity_key % nonempty_.size()];
      shards_[s]->routed.push_back(static_cast<int>(i));
    }

    const auto shard_phase = [&](int, int begin, int end) {
      for (int k = begin; k < end; ++k) {
        Shard& shard = *shards_[nonempty_[k]];
        for (const int i : shard.routed) {
          const int machine = PlaceOnShard(shard, requests[i]);
          if (machine >= 0) {
            results[i] = machine;
          } else {
            shard.overflow.push_back(i);
          }
        }
      }
    };
    const int n = static_cast<int>(nonempty_.size());
    if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
      pool->ParallelForRanges(n, 1, shard_phase);
    } else {
      shard_phase(0, 0, n);
    }

    for (const int s : nonempty_) {
      for (const int i : shards_[s]->overflow) {
        const Request& request = requests[i];
        std::fill(tried_.begin(), tried_.end(), static_cast<uint8_t>(0));
        tried_[s] = 1;
        int machine = -1;
        for (const int t : steal_order_) {
          if (tried_[t] || shards_[t]->max_headroom_summary < request.limit) {
            continue;
          }
          tried_[t] = 1;
          machine = PlaceOnShard(*shards_[t], request);
          if (machine >= 0) {
            break;
          }
        }
        if (machine < 0) {
          // Summaries may be stale; try every remaining shard before
          // declaring the task unplaceable.
          for (const int t : steal_order_) {
            if (tried_[t]) {
              continue;
            }
            tried_[t] = 1;
            machine = PlaceOnShard(*shards_[t], request);
            if (machine >= 0) {
              break;
            }
          }
        }
        if (machine >= 0) {
          results[i] = machine;
          ++stolen_placements_;
        }
      }
    }

    if (rebalance_due) {
      RefreshSummaries();
    }
  }

  int64_t stolen_placements() const { return stolen_placements_; }

 private:
  struct alignas(64) Shard {
    int base = 0;
    int count = 0;
    Rng rng{0};  // replaced by the per-shard fork at construction
    std::vector<double> headroom;  // target*capacity - alloc, local index
    CapacityTournamentTree tree;   // keyed by headroom
    double max_headroom_summary = 0.0;
    std::vector<int> routed;
    std::vector<int> overflow;
  };

  double Headroom(int machine) const {
    return target_ratio_ * builder_.machine_capacity(machine) - alloc_[machine];
  }

  Shard& ShardOf(int machine) {
    const int64_t num_shards = static_cast<int64_t>(shards_.size());
    const int64_t num_machines = static_cast<int64_t>(alloc_.size());
    // Shard ranges are floor(s*M/S)..floor((s+1)*M/S); invert with one
    // division and correct for the floor rounding.
    int s = static_cast<int>(static_cast<int64_t>(machine) * num_shards / num_machines);
    while (machine < shards_[s]->base) {
      --s;
    }
    while (machine >= shards_[s]->base + shards_[s]->count) {
      ++s;
    }
    return *shards_[s];
  }

  void RefreshSummaries() {
    for (const int s : nonempty_) {
      Shard& shard = *shards_[s];
      shard.max_headroom_summary = shard.headroom[shard.tree.MachineAtRank(shard.count - 1)];
    }
    steal_order_ = nonempty_;
    std::stable_sort(steal_order_.begin(), steal_order_.end(), [this](int a, int b) {
      return shards_[a]->max_headroom_summary > shards_[b]->max_headroom_summary;
    });
  }

  // One shard-local placement attempt: filter to feasible-by-headroom
  // machines via the treap, probe placement_probes of them (or walk all of
  // them when probing is off or the feasible set is small), pick the best
  // weighted ratio preferring machines the job does not already use, then
  // debit. Draws from the shard RNG only.
  int PlaceOnShard(Shard& shard, const Request& request) {
    if (shard.count == 0) {
      return -1;
    }
    const int feasible_begin = shard.tree.RankOfKey(request.limit, -1);
    const int feasible = shard.count - feasible_begin;
    if (feasible <= 0) {
      return -1;
    }
    int best = -1;
    int best_used = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_used_ratio = std::numeric_limits<double>::infinity();
    const auto consider = [&](int local) {
      const int m = shard.base + local;
      const double capacity = builder_.machine_capacity(m);
      // Headroom feasibility does not imply the limit fits the machine when
      // target_alloc_ratio > 1.
      if (request.limit > capacity) {
        return;
      }
      const double ratio = alloc_[m] / (capacity * weight_[m]);
      const bool used = request.used != nullptr &&
                        std::find(request.used->begin(), request.used->end(), m) !=
                            request.used->end();
      if (used) {
        if (ratio < best_used_ratio) {
          best_used_ratio = ratio;
          best_used = local;
        }
      } else if (ratio < best_ratio) {
        best_ratio = ratio;
        best = local;
      }
    };
    const int probes = options_.placement_probes;
    if (probes > 0 && probes < feasible) {
      for (int k = 0; k < probes; ++k) {
        consider(shard.tree.MachineAtRank(
            feasible_begin + static_cast<int>(shard.rng.UniformInt(feasible))));
      }
    } else {
      for (int rank = feasible_begin; rank < shard.count; ++rank) {
        consider(shard.tree.MachineAtRank(rank));
      }
    }
    const int chosen = best >= 0 ? best : best_used;
    if (chosen < 0) {
      return -1;
    }
    const int machine = shard.base + chosen;
    alloc_[machine] += request.limit;
    shard.headroom[chosen] = Headroom(machine);
    shard.tree.Update(chosen, shard.headroom[chosen]);
    if (request.used != nullptr) {
      request.used->push_back(machine);
    }
    return machine;
  }

  const GeneratorOptions& options_;
  const CellTraceBuilder& builder_;
  std::vector<double>& alloc_;
  const std::vector<double>& weight_;
  const double target_ratio_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int> nonempty_;
  std::vector<int> steal_order_;
  std::vector<uint8_t> tried_;
  int64_t batches_ = 0;
  int64_t stolen_placements_ = 0;
};

class Generator {
 public:
  Generator(const CellProfile& profile, const GeneratorOptions& options, const Rng& rng)
      : profile_(profile),
        options_(options),
        sampler_(profile, rng.Fork(0x6a6f62)),  // "job"
        arrival_rng_(rng.Fork(0x617272)),       // "arr"
        placement_rng_(rng.Fork(0x706c63)),     // "plc"
        usage_rng_(rng.Fork(0x757367)) {}       // "usg"

  CellTrace Run() {
    RunPlacementPhase();
    GenerateUsage(nullptr);
    return builder_.Seal();
  }

  // Streaming variant: identical placement phase (same RNG draws, same
  // placements), then the same usage phase straight into a
  // StreamingTraceWriter at `path`, so resident memory tracks the machine
  // blocks in flight rather than the whole cell. Tasks are renumbered
  // machine-major: the concatenation of the per-machine placement lists.
  bool RunStreaming(const std::string& path, std::string* error, StreamedTraceInfo* info) {
    RunPlacementPhase();
    const int32_t n = builder_.num_tasks();
    const int num_machines = profile_.num_machines;
    std::vector<TaskId> task_id(n);
    std::vector<JobId> job_id(n);
    std::vector<int32_t> machine_of(n);
    std::vector<Interval> start(n);
    std::vector<uint8_t> sched_class(n);
    std::vector<double> limit(n);
    std::vector<Interval> runtime(n);
    std::vector<double> capacity(num_machines);
    int32_t i = 0;
    for (int m = 0; m < num_machines; ++m) {
      capacity[m] = builder_.machine_capacity(m);
      for (const int32_t old : builder_.machine_tasks(m)) {
        CRF_CHECK_LT(i, n) << "CSR rows must cover every task exactly once";
        task_id[i] = builder_.task_id(old);
        job_id[i] = builder_.job_id(old);
        machine_of[i] = builder_.task_machine(old);
        start[i] = builder_.task_start(old);
        sched_class[i] = static_cast<uint8_t>(builder_.task_class(old));
        limit[i] = builder_.task_limit(old);
        runtime[i] = runtimes_[old];
        ++i;
      }
    }
    CRF_CHECK_EQ(i, n) << "CSR rows must cover every task exactly once";

    StreamTraceSpec spec;
    spec.name = profile_.name;
    spec.num_intervals = options_.num_intervals;
    spec.dropped_tasks = builder_.dropped_tasks();
    spec.rich = options_.rich_stats;
    spec.task_id = task_id;
    spec.job_id = job_id;
    spec.machine_of = machine_of;
    spec.start = start;
    spec.sched_class = sched_class;
    spec.limit = limit;
    spec.runtime = runtime;
    spec.capacity = capacity;

    StreamingTraceWriter writer(spec, path, error);
    if (!writer.ok()) {
      return false;
    }
    GenerateUsage(&writer);
    if (!writer.Finish(error)) {
      return false;
    }
    if (info != nullptr) {
      info->num_tasks = n;
      info->dropped_tasks = builder_.dropped_tasks();
      info->file_bytes = writer.file_bytes();
      info->placement_ms = placement_ms_;
      info->placement_attempts = n + builder_.dropped_tasks();
    }
    return true;
  }

  PlacementPhaseStats MeasurePlacement() {
    RunPlacementPhase();
    PlacementPhaseStats stats;
    stats.tasks_placed = builder_.num_tasks();
    stats.dropped_tasks = builder_.dropped_tasks();
    stats.placement_attempts = stats.tasks_placed + stats.dropped_tasks;
    stats.placement_ms = placement_ms_;
    double stranded = 0.0;
    double target_total = 0.0;
    for (int m = 0; m < profile_.num_machines; ++m) {
      const double target = profile_.target_alloc_ratio * builder_.machine_capacity(m);
      target_total += target;
      stranded += std::max(0.0, target - alloc_[m]);
    }
    stats.stranded_fraction = target_total > 0.0 ? stranded / target_total : 0.0;
    return stats;
  }

 private:
  void RunPlacementPhase() {
    const auto started = std::chrono::steady_clock::now();
    InitMachines();
    InitialFill();
    ArrivalSweep();
    placement_ms_ = ElapsedMs(started);
  }

  void InitMachines() {
    builder_.Reset(profile_.name, options_.num_intervals, profile_.num_machines);
    for (int m = 0; m < profile_.num_machines; ++m) {
      builder_.set_machine_capacity(m, profile_.machine_capacity);
    }
    alloc_.assign(profile_.num_machines, 0.0);
    machine_weight_.resize(profile_.num_machines);
    for (auto& weight : machine_weight_) {
      weight = placement_rng_.LogNormal(0.0, profile_.machine_imbalance_sigma);
    }
    departures_.assign(options_.num_intervals + 1, {});
    departure_counts_.assign(options_.num_intervals + 1, 0);
    departure_sum_.assign(profile_.num_machines, 0.0);
    departure_epoch_.assign(profile_.num_machines, -1);
    job_stamp_.assign(profile_.num_machines, 0);
    job_epoch_ = 0;
    if (options_.placement_shards > 0) {
      // The shard RNGs fork from the placement stream after the machine
      // weights are drawn, so (seed, shards) fully determines them.
      placer_ = std::make_unique<ShardedPlacer>(profile_, options_, builder_, alloc_,
                                                machine_weight_, placement_rng_);
    } else {
      placer_.reset();
    }
  }

  // Worst-fit placement: the feasible machine with the lowest weighted
  // allocation ratio, preferring machines not already hosting a task of this
  // job (spreading, a stand-in for Borg's anti-affinity). The static
  // per-machine weight skews packing so some machines run persistently
  // fuller than others, like a production cell. The job's machines are
  // stamped with a fresh epoch first, so the anti-affinity test is one load
  // per candidate instead of a search of the job's list.
  int PlaceTask(double limit, const std::vector<int>& machines_used_by_job) {
    ++job_epoch_;
    for (const int m : machines_used_by_job) {
      job_stamp_[m] = job_epoch_;
    }
    int best = -1;
    int best_used = -1;  // Fallback if every feasible machine hosts the job.
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_used_ratio = std::numeric_limits<double>::infinity();
    const int num_machines = profile_.num_machines;
    const auto consider = [&](int m) {
      const double capacity = builder_.machine_capacity(m);
      if (limit > capacity || alloc_[m] + limit > profile_.target_alloc_ratio * capacity) {
        return;
      }
      const double ratio = alloc_[m] / (capacity * machine_weight_[m]);
      if (job_stamp_[m] == job_epoch_) {
        if (ratio < best_used_ratio) {
          best_used_ratio = ratio;
          best_used = m;
        }
      } else if (ratio < best_ratio) {
        best_ratio = ratio;
        best = m;
      }
    };
    if (options_.placement_probes > 0 && options_.placement_probes < num_machines) {
      // Bounded-probe worst-fit for cloud-scale cells: sample a fixed number
      // of machines instead of scanning all of them. Duplicate probes are
      // harmless (same candidate considered twice).
      for (int k = 0; k < options_.placement_probes; ++k) {
        consider(static_cast<int>(placement_rng_.UniformInt(num_machines)));
      }
    } else {
      // Scan cyclically from a random offset so ties do not always favor
      // machine 0; the strict < keeps the first minimum in that order.
      const int offset = static_cast<int>(placement_rng_.UniformInt(num_machines));
      for (int m = offset; m < num_machines; ++m) {
        consider(m);
      }
      for (int m = 0; m < offset; ++m) {
        consider(m);
      }
    }
    return best >= 0 ? best : best_used;
  }

  // Registers one placed task: trace row, usage reservation, per-task
  // params, departure bucket. `machine` is already chosen (and, in sharded
  // mode, already debited and appended to the job's used list).
  void CommitPlacedTask(const JobTemplate& job, int machine, Interval start,
                        Interval runtime) {
    const int32_t task_index = builder_.AddTask(next_task_id_++, job.job_id,
                                                static_cast<int32_t>(machine), start, job.limit,
                                                job.sched_class);
    builder_.ReserveUsage(task_index, runtime);
    task_params_.push_back(sampler_.JitterTaskParams(job.params));

    const Interval end = start + runtime;
    CRF_CHECK_LE(end, options_.num_intervals);
    departures_[end].push_back({static_cast<int32_t>(machine), job.limit});
    ++departure_counts_[end];
    ++resident_count_;

    runtimes_.push_back(runtime);
  }

  // Creates, places, and registers one task (serial reference path).
  // Returns true if placed.
  bool SpawnTask(const JobTemplate& job, Interval start, Interval runtime,
                 std::vector<int>& machines_used_by_job) {
    const int machine = PlaceTask(job.limit, machines_used_by_job);
    if (machine < 0) {
      builder_.AddDroppedTask();
      return false;
    }
    machines_used_by_job.push_back(machine);
    alloc_[machine] += job.limit;
    CommitPlacedTask(job, machine, start, runtime);
    return true;
  }

  // Sharded batch path: place every sampled task of batch_jobs_/batch_tasks_
  // through the ShardedPlacer, then commit in batch order. The commit is
  // serial, so the sampler's JitterTaskParams draws happen in a fixed order
  // — batch order — regardless of which shard or thread placed each task.
  void PlaceAndCommitBatch(Interval start) {
    batch_requests_.clear();
    batch_requests_.reserve(batch_tasks_.size());
    for (const BatchTask& task : batch_tasks_) {
      BatchJob& job = batch_jobs_[task.job_index];
      batch_requests_.push_back(
          {job.job.limit, &job.used, static_cast<uint64_t>(job.job.job_id)});
    }
    batch_results_.assign(batch_tasks_.size(), -1);
    placer_->PlaceBatch(batch_requests_, batch_results_, options_.pool);
    for (size_t i = 0; i < batch_tasks_.size(); ++i) {
      const BatchTask& task = batch_tasks_[i];
      BatchJob& job = batch_jobs_[task.job_index];
      const int machine = batch_results_[i];
      if (machine < 0) {
        builder_.AddDroppedTask();
        continue;
      }
      job.any_placed = true;
      CommitPlacedTask(job.job, machine, start, task.runtime);
    }
  }

  void InitialFill() {
    const int64_t target =
        static_cast<int64_t>(profile_.tasks_per_machine * profile_.num_machines);
    int64_t consecutive_failures = 0;
    if (placer_ == nullptr) {
      while (resident_count_ < target && consecutive_failures < 64) {
        const JobTemplate job = sampler_.NextJob();
        const bool service = arrival_rng_.Bernoulli(profile_.service_fraction);
        const int num_tasks = sampler_.SampleTasksPerJob();
        std::vector<int> used;
        bool any_placed = false;
        for (int i = 0; i < num_tasks; ++i) {
          const Interval runtime = sampler_.SampleRuntime(service, 0, options_.num_intervals);
          any_placed |= SpawnTask(job, 0, runtime, used);
        }
        consecutive_failures = any_placed ? 0 : consecutive_failures + 1;
      }
      return;
    }
    // Sharded: sample jobs up to a batch's worth of tasks (assuming they all
    // place), place the batch shard-parallel, then apply the same
    // consecutive-failure cutoff per job in sampling order.
    constexpr int kFillBatchTasks = 4096;
    while (resident_count_ < target && consecutive_failures < 64) {
      batch_jobs_.clear();
      batch_tasks_.clear();
      int64_t projected = resident_count_;
      while (projected < target && static_cast<int>(batch_tasks_.size()) < kFillBatchTasks) {
        BatchJob batch_job;
        batch_job.job = sampler_.NextJob();
        batch_job.service = arrival_rng_.Bernoulli(profile_.service_fraction);
        const int num_tasks = sampler_.SampleTasksPerJob();
        const int job_index = static_cast<int>(batch_jobs_.size());
        batch_jobs_.push_back(std::move(batch_job));
        for (int i = 0; i < num_tasks; ++i) {
          batch_tasks_.push_back({job_index, sampler_.SampleRuntime(batch_jobs_[job_index].service,
                                                                    0, options_.num_intervals)});
        }
        projected += num_tasks;
      }
      PlaceAndCommitBatch(0);
      for (const BatchJob& job : batch_jobs_) {
        consecutive_failures = job.any_placed ? 0 : consecutive_failures + 1;
      }
    }
  }

  void ArrivalSweep() {
    std::vector<int32_t> touched;
    for (Interval t = 1; t < options_.num_intervals; ++t) {
      resident_count_ -= departure_counts_[t];
      // Departures are bucketed by interval (O(tasks) total instead of the
      // old machines x intervals matrix). Per-machine limits are summed in
      // placement order — the same float-addition order the dense matrix
      // accumulated — and each machine is debited once, so allocations stay
      // bit-identical.
      touched.clear();
      for (const Departure& d : departures_[t]) {
        if (departure_epoch_[d.machine] != t) {
          departure_epoch_[d.machine] = t;
          departure_sum_[d.machine] = 0.0;
          touched.push_back(d.machine);
        }
        departure_sum_[d.machine] += d.limit;
      }
      for (const int32_t m : touched) {
        alloc_[m] -= departure_sum_[m];
      }
      if (placer_ != nullptr) {
        for (const int32_t m : touched) {
          placer_->Refresh(m);
        }
      }
      departures_[t] = {};  // bucket is spent; release its memory

      int arrivals = arrival_rng_.Poisson(ArrivalRate(profile_, t, resident_count_));
      if (placer_ == nullptr) {
        while (arrivals > 0) {
          const JobTemplate job = sampler_.NextJob();
          const int num_tasks = std::min(arrivals, sampler_.SampleTasksPerJob());
          std::vector<int> used;
          for (int i = 0; i < num_tasks; ++i) {
            SpawnTask(job, t,
                      sampler_.SampleRuntime(/*service=*/false, t, options_.num_intervals),
                      used);
          }
          arrivals -= num_tasks;
        }
      } else {
        // One placement batch per interval: every arriving task this
        // interval places shard-parallel against the same capacity view.
        batch_jobs_.clear();
        batch_tasks_.clear();
        while (arrivals > 0) {
          BatchJob batch_job;
          batch_job.job = sampler_.NextJob();
          const int num_tasks = std::min(arrivals, sampler_.SampleTasksPerJob());
          const int job_index = static_cast<int>(batch_jobs_.size());
          batch_jobs_.push_back(std::move(batch_job));
          for (int i = 0; i < num_tasks; ++i) {
            batch_tasks_.push_back(
                {job_index,
                 sampler_.SampleRuntime(/*service=*/false, t, options_.num_intervals)});
          }
          arrivals -= num_tasks;
        }
        PlaceAndCommitBatch(t);
      }
    }
  }

  // Generates machine m's usage through one MachineUsageKernel: its tasks
  // are admitted in start order and stepped to the horizon. Without a
  // writer, rows are appended to the builder (placement-order task
  // numbering). With one, they go straight into the mapped file's
  // machine-major rows: machine m's tasks are the rows from
  // machine_begin(m) on, in placement-list order. The active set, the
  // sub-samples and the sum order are the same either way (task usage RNG
  // streams are forked from the task ids), so each machine's rows and true
  // peaks are bit-identical across the two outputs.
  void GenerateMachineUsage(int m, std::span<const double> shared_load,
                            StreamingTraceWriter* writer) {
    const std::span<const int32_t> placed = builder_.machine_tasks(m);
    // Placement already appends in start order; sorting keeps the invariant
    // explicit.
    std::vector<int32_t> order(placed.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this, placed](int32_t a, int32_t b) {
      return builder_.task_start(placed[a]) < builder_.task_start(placed[b]);
    });
    if (writer == nullptr) {
      builder_.mutable_true_peak(m).assign(options_.num_intervals, 0.0f);
    }
    const std::span<float> peak_row = writer == nullptr
                                          ? std::span<float>(builder_.mutable_true_peak(m))
                                          : writer->true_peak_row(m);
    const int32_t first_row = writer == nullptr ? 0 : writer->machine_begin(m);

    MachineUsageKernel kernel;
    size_t next = 0;
    int64_t samples = 0;
    for (Interval t = 0; t < options_.num_intervals; ++t) {
      kernel.Retire(t);
      // A task's lifetime is its sampled runtime; its usage row is what
      // this loop is filling.
      while (next < order.size() && builder_.task_start(placed[order[next]]) == t) {
        const int32_t k = order[next++];
        const int32_t task = placed[k];
        kernel.Admit(k, t + runtimes_[task],
                     TaskUsageModel(task_params_[task], t,
                                    usage_rng_.Fork(static_cast<uint64_t>(builder_.task_id(task)))));
      }
      const auto write = [&](int32_t k, float p90, const RichUsage* ladder) {
        ++samples;
        const int32_t task = placed[k];
        if (writer == nullptr) {
          builder_.AppendUsage(task, p90);
          if (ladder != nullptr) {
            builder_.AppendRich(task, *ladder);
          }
          return;
        }
        const int32_t row = first_row + k;
        const Interval i = t - builder_.task_start(task);
        writer->usage_row(row)[i] = p90;
        if (ladder != nullptr) {
          for (int c = 0; c < kNumRichColumns; ++c) {
            writer->rich_row(row, static_cast<RichColumn>(c))[i] = ladder->*kRichColumnFields[c];
          }
        }
      };
      peak_row[t] = static_cast<float>(kernel.Step(shared_load[t], options_.rich_stats, write));
    }
    // Every task must have exactly its sampled runtime worth of samples.
    int64_t expected = 0;
    for (const int32_t task : placed) {
      expected += runtimes_[task];
    }
    CRF_CHECK_EQ(next, order.size()) << "machine " << m << " has tasks that never started";
    CRF_CHECK_EQ(samples, expected) << "machine " << m << " usage rows do not match runtimes";
  }

  // The usage phase of both outputs (see GenerateMachineUsage). Machines are
  // independent, so they run pool-parallel with identical bytes at any pool
  // size. When streaming, machines run in chunks whose pages are flushed and
  // evicted before the next chunk starts; at one thread that is a
  // 256-machine retire cadence, and with a pool the chunk scales with the
  // thread count so every worker has machines to claim.
  void GenerateUsage(StreamingTraceWriter* writer) {
    const std::vector<double> shared_load =
        BuildSharedLoadSeries(profile_, options_.num_intervals, usage_rng_);
    const int num_machines = profile_.num_machines;
    ThreadPool* pool = options_.pool;
    const bool parallel = pool != nullptr && pool->num_threads() > 1 && num_machines > 1;
    constexpr int kRetireBlock = 256;
    const int chunk = writer == nullptr ? num_machines
                                        : kRetireBlock * (parallel ? pool->num_threads() : 1);
    for (int base = 0; base < num_machines; base += chunk) {
      const int end = std::min(num_machines, base + chunk);
      if (parallel) {
        pool->ParallelForRanges(end - base, 1, [&](int, int begin, int stop) {
          for (int k = begin; k < stop; ++k) {
            GenerateMachineUsage(base + k, shared_load, writer);
          }
        });
      } else {
        for (int m = base; m < end; ++m) {
          GenerateMachineUsage(m, shared_load, writer);
        }
      }
      if (writer != nullptr) {
        writer->RetireMachines(base, end);
      }
    }
  }

  const CellProfile& profile_;
  const GeneratorOptions& options_;
  JobSampler sampler_;
  Rng arrival_rng_;
  Rng placement_rng_;
  Rng usage_rng_;

  CellTraceBuilder builder_;
  std::vector<double> alloc_;
  std::vector<double> machine_weight_;
  std::unique_ptr<ShardedPlacer> placer_;
  struct Departure {
    int32_t machine;
    double limit;
  };
  std::vector<std::vector<Departure>> departures_;  // indexed by end interval
  std::vector<int64_t> departure_counts_;
  std::vector<double> departure_sum_;     // per-machine scratch for one sweep step
  std::vector<Interval> departure_epoch_; // interval the scratch entry is valid for
  std::vector<uint64_t> job_stamp_;       // PlaceTask epoch that last stamped each machine
  uint64_t job_epoch_ = 0;
  std::vector<Interval> runtimes_;
  std::vector<TaskUsageParams> task_params_;

  // Batch scratch for the sharded path.
  struct BatchJob {
    JobTemplate job;
    bool service = false;
    bool any_placed = false;
    std::vector<int> used;
  };
  struct BatchTask {
    int job_index;
    Interval runtime;
  };
  std::vector<BatchJob> batch_jobs_;
  std::vector<BatchTask> batch_tasks_;
  std::vector<ShardedPlacer::Request> batch_requests_;
  std::vector<int> batch_results_;

  int64_t resident_count_ = 0;
  TaskId next_task_id_ = 1;
  double placement_ms_ = 0.0;
};

}  // namespace

CellTrace GenerateCellTrace(const CellProfile& profile, const GeneratorOptions& options,
                            const Rng& rng) {
  CRF_CHECK_GT(profile.num_machines, 0);
  CRF_CHECK_GT(options.num_intervals, 0);
  Generator generator(profile, options, rng);
  return generator.Run();
}

bool GenerateCellTraceToFile(const CellProfile& profile, const GeneratorOptions& options,
                             const Rng& rng, const std::string& path, std::string* error,
                             StreamedTraceInfo* info) {
  CRF_CHECK_GT(profile.num_machines, 0);
  CRF_CHECK_GT(options.num_intervals, 0);
  Generator generator(profile, options, rng);
  return generator.RunStreaming(path, error, info);
}

PlacementPhaseStats MeasurePlacementPhase(const CellProfile& profile,
                                          const GeneratorOptions& options, const Rng& rng) {
  CRF_CHECK_GT(profile.num_machines, 0);
  CRF_CHECK_GT(options.num_intervals, 0);
  Generator generator(profile, options, rng);
  return generator.MeasurePlacement();
}

}  // namespace crf
