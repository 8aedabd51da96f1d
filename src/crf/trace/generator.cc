#include "crf/trace/generator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

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

class Generator {
 public:
  Generator(const CellProfile& profile, const GeneratorOptions& options, const Rng& rng)
      : profile_(profile),
        options_(options),
        sampler_(profile, rng.Fork(0x6a6f62)),  // "job"
        arrival_rng_(rng.Fork(0x617272)),       // "arr"
        placement_rng_(rng.Fork(0x706c63)),     // "plc"
        usage_rng_(rng.Fork(0x757367)) {}       // "usg"

  // Heap output: once placement ends every task's columns and runtime are
  // known, so the final arena is sized and its columns written once, and
  // usage is generated straight into its rows (placement-order numbering).
  CellTrace Run() {
    RunPlacementPhase();
    ArenaWriter rows(Columns());
    rows.WriteColumnsToHeap();
    GenerateUsage(rows, nullptr);
    return rows.Seal();
  }

  // Streaming variant: identical placement phase (same RNG draws, same
  // placements), then the same usage phase straight into a
  // StreamingTraceWriter at `path`, so resident memory tracks the machine
  // blocks in flight rather than the whole cell. Tasks are renumbered
  // machine-major: the concatenation of the per-machine placement lists.
  bool RunStreaming(const std::string& path, std::string* error, StreamedTraceInfo* info) {
    RunPlacementPhase();
    std::ranges::stable_sort(row_task_, {}, [this](int32_t task) { return machine_of_[task]; });
    StreamingTraceWriter writer(Columns(), path, error);
    if (!writer.ok()) {
      return false;
    }
    GenerateUsage(writer.rows(), &writer);
    if (!writer.Finish(error)) {
      return false;
    }
    if (info != nullptr) {
      info->num_tasks = static_cast<int64_t>(task_id_.size());
      info->dropped_tasks = dropped_tasks_;
      info->file_bytes = writer.file_bytes();
      info->placement_ms = placement_ms_;
      info->placement_attempts = info->num_tasks + dropped_tasks_;
    }
    return true;
  }

 private:
  void RunPlacementPhase() {
    const auto started = std::chrono::steady_clock::now();
    InitMachines();
    InitialFill();
    ArrivalSweep();
    placement_ms_ = ElapsedMs(started);
    row_task_.resize(task_id_.size());
    std::iota(row_task_.begin(), row_task_.end(), 0);
  }

  // The placed tasks' columns, rows numbered by row_task_.
  TraceColumns Columns() const {
    return {profile_.name, options_.num_intervals, dropped_tasks_, options_.rich_stats,
            task_id_, job_id_, machine_of_, start_, sched_class_, limit_, runtimes_,
            capacity_, /*peak_length=*/{}, row_task_};
  }

  void InitMachines() {
    capacity_.assign(profile_.num_machines, profile_.machine_capacity);
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
      const double capacity = capacity_[m];
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

  // Creates, places, and registers one task: its columns, usage params and
  // departure bucket. Returns true if placed.
  bool SpawnTask(const JobTemplate& job, Interval start, Interval runtime,
                 std::vector<int>& machines_used_by_job) {
    const int machine = PlaceTask(job.limit, machines_used_by_job);
    if (machine < 0) {
      ++dropped_tasks_;
      return false;
    }
    machines_used_by_job.push_back(machine);
    alloc_[machine] += job.limit;
    task_id_.push_back(next_task_id_++);
    job_id_.push_back(job.job_id);
    machine_of_.push_back(machine);
    start_.push_back(start);
    sched_class_.push_back(static_cast<uint8_t>(job.sched_class));
    limit_.push_back(job.limit);
    task_params_.push_back(sampler_.JitterTaskParams(job.params));

    const Interval end = start + runtime;
    CRF_CHECK_LE(end, options_.num_intervals);
    departures_[end].push_back({static_cast<int32_t>(machine), job.limit});
    ++departure_counts_[end];
    ++resident_count_;

    runtimes_.push_back(runtime);
    return true;
  }

  void InitialFill() {
    const int64_t target =
        static_cast<int64_t>(profile_.tasks_per_machine * profile_.num_machines);
    int64_t consecutive_failures = 0;
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
      departures_[t] = {};  // bucket is spent; release its memory

      int arrivals = arrival_rng_.Poisson(ArrivalRate(profile_, t, resident_count_));
      while (arrivals > 0) {
        const JobTemplate job = sampler_.NextJob();
        const int num_tasks = std::min(arrivals, sampler_.SampleTasksPerJob());
        std::vector<int> used;
        for (int i = 0; i < num_tasks; ++i) {
          SpawnTask(job, t, sampler_.SampleRuntime(/*service=*/false, t, options_.num_intervals),
                    used);
        }
        arrivals -= num_tasks;
      }
    }
  }

  // Generates machine m's usage through one MachineUsageKernel: its tasks
  // are admitted in start order and stepped to the horizon, each sample
  // written straight into the task's arena row (row r holds placement task
  // row_task_[r]). The active set, the sub-samples and the sum order do not
  // depend on the row numbering (task usage RNG streams are forked from the
  // task ids), so each machine's rows and true peaks are bit-identical
  // across the heap and streamed outputs.
  void GenerateMachineUsage(int m, std::span<const double> shared_load, const ArenaWriter& rows) {
    const std::span<const int32_t> machine_rows = rows.machine_rows(m);
    std::vector<int32_t> placed(machine_rows.size());
    std::ranges::transform(machine_rows, placed.begin(),
                           [this](int32_t row) { return row_task_[row]; });
    // Placement already appends in start order; sorting keeps the invariant
    // explicit.
    std::vector<int32_t> order(placed.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this, &placed](int32_t a, int32_t b) {
      return start_[placed[a]] < start_[placed[b]];
    });
    const std::span<float> peak_row = rows.true_peak_row(m);

    MachineUsageKernel kernel;
    size_t next = 0;
    int64_t samples = 0;
    for (Interval t = 0; t < options_.num_intervals; ++t) {
      kernel.Retire(t);
      // A task's lifetime is its sampled runtime; its usage row is what
      // this loop is filling.
      while (next < order.size() && start_[placed[order[next]]] == t) {
        const int32_t k = order[next++];
        const int32_t task = placed[k];
        kernel.Admit(k, t + runtimes_[task],
                     TaskUsageModel(task_params_[task], t,
                                    usage_rng_.Fork(static_cast<uint64_t>(task_id_[task]))));
      }
      const auto write = [&](int32_t k, float p90, const RichUsage* ladder) {
        ++samples;
        const int32_t row = machine_rows[k];
        const Interval i = t - start_[placed[k]];
        rows.usage_row(row)[i] = p90;
        for (int c = 0; ladder != nullptr && c < kNumRichColumns; ++c) {
          rows.rich_row(row, static_cast<RichColumn>(c))[i] = ladder->*kRichColumnFields[c];
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
  void GenerateUsage(const ArenaWriter& rows, StreamingTraceWriter* writer) {
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
            GenerateMachineUsage(base + k, shared_load, rows);
          }
        });
      } else {
        for (int m = base; m < end; ++m) {
          GenerateMachineUsage(m, shared_load, rows);
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

  // Placement output, one entry per placed task in placement order: the
  // trace's metadata columns, then each task's runtime and usage params.
  std::vector<TaskId> task_id_;
  std::vector<JobId> job_id_;
  std::vector<int32_t> machine_of_;
  std::vector<Interval> start_;
  std::vector<uint8_t> sched_class_;
  std::vector<double> limit_;
  std::vector<Interval> runtimes_;
  std::vector<TaskUsageParams> task_params_;
  std::vector<double> capacity_;
  int64_t dropped_tasks_ = 0;
  // Arena row r holds placement task row_task_[r]: the identity for the
  // heap output, machine-major for the streamed one.
  std::vector<int32_t> row_task_;

  std::vector<double> alloc_;
  std::vector<double> machine_weight_;
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

}  // namespace crf
