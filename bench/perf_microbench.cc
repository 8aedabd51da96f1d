// Microbenchmarks (google-benchmark) for the hot paths the paper's Section 4
// constraints care about: a predictor must respond "within the polling
// frequency of the central scheduler" with a small CPU and memory footprint.
// Measures per-poll predictor cost, oracle computation throughput, the
// IndexableWindow percentile window, the fused simulation engine
// (machines/sec and intervals/sec, with and without the shared oracle cache
// across a 16-point predictor sweep), and the CRFNET ingest frame codec.
//
// Results are recorded as JSON under $REPRO_OUT (default bench_out/) in
// perf_microbench.json so engine throughput is a regression-checkable
// number; pass --benchmark_out=... to override. The closed-loop cluster
// engine's thread-scaling matrix is additionally timed into the tracked
// BENCH_cluster.json (see RecordClusterBench below),
// and the multi-spec sweep engine (per-spec SimulateCell loop vs one
// SimulateCellMulti pass over the Fig 8+9 grid) into the tracked
// BENCH_sweep.json (see RecordSweepBench below).

#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "crf/cluster/ab_experiment.h"
#include "crf/cluster/cell_sim.h"
#include "crf/net/loadgen.h"
#include "crf/net/server.h"
#include "crf/net/wire.h"
#include "crf/core/indexable_window.h"
#include "crf/core/oracle.h"
#include "crf/core/predictor_factory.h"
#include "crf/serve/replay.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_io.h"
#include "crf/util/env.h"
#include "crf/util/rng.h"
#include "crf/util/rss.h"
#include "crf/util/thread_pool.h"
#include "reference/linear_scheduler.h"

namespace crf {
namespace {

std::vector<TaskSample> MakeTasks(int count, Rng& rng) {
  std::vector<TaskSample> tasks;
  tasks.reserve(count);
  for (int i = 0; i < count; ++i) {
    const double limit = 0.02 + rng.UniformDouble() * 0.2;
    tasks.push_back({static_cast<TaskId>(i + 1), limit * rng.UniformDouble(), limit});
  }
  return tasks;
}

void BenchPredictorPoll(benchmark::State& state, const PredictorSpec& spec) {
  Rng rng(1);
  auto predictor = CreatePredictor(spec);
  auto tasks = MakeTasks(static_cast<int>(state.range(0)), rng);
  Interval now = 0;
  for (auto _ : state) {
    // Perturb usage so the history windows churn realistically.
    for (auto& task : tasks) {
      task.usage = task.limit * rng.UniformDouble();
    }
    predictor->Observe(now++, tasks);
    benchmark::DoNotOptimize(predictor->PredictPeak());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BorgDefaultPoll(benchmark::State& state) {
  BenchPredictorPoll(state, BorgDefaultSpec(0.9));
}
void BM_RcLikePoll(benchmark::State& state) { BenchPredictorPoll(state, RcLikeSpec(99.0)); }
void BM_NSigmaPoll(benchmark::State& state) { BenchPredictorPoll(state, NSigmaSpec(5.0)); }
void BM_MaxPoll(benchmark::State& state) { BenchPredictorPoll(state, ProductionMaxSpec()); }

BENCHMARK(BM_BorgDefaultPoll)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_RcLikePoll)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_NSigmaPoll)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_MaxPoll)->Arg(16)->Arg(64)->Arg(256);

// The per-task percentile window. The BM_TaskHistory* names come from the
// IndexableWindow wrapper these once timed and are kept so recorded rows
// stay comparable.
void BM_TaskHistoryPush(benchmark::State& state) {
  IndexableWindow history(static_cast<int>(state.range(0)));
  Rng rng(2);
  for (auto _ : state) {
    history.Push(static_cast<float>(rng.UniformDouble()));
    benchmark::DoNotOptimize(history.size());
  }
}
BENCHMARK(BM_TaskHistoryPush)->Arg(24)->Arg(120)->Arg(1200)->Arg(2016);

void BM_TaskHistoryPercentile(benchmark::State& state) {
  IndexableWindow history(static_cast<int>(state.range(0)));
  Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    history.Push(static_cast<float>(rng.UniformDouble()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(history.Percentile(99.0));
  }
}
BENCHMARK(BM_TaskHistoryPercentile)->Arg(24)->Arg(120)->Arg(1200)->Arg(2016);

// One-machine oracle computation over a day trace; measures the
// segment-sliding-max algorithm.
void BM_PeakOracle(benchmark::State& state) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 1;
  profile.tasks_per_machine = static_cast<double>(state.range(0));
  profile.target_alloc_ratio = 1e9;  // Let the single machine hold them all.
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerWeek;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePeakOracle(cell, 0, kIntervalsPerDay));
  }
  state.SetItemsProcessed(state.iterations() * cell.num_intervals);
}
BENCHMARK(BM_PeakOracle)->Arg(16)->Arg(64);

void BM_TotalUsageOracle(benchmark::State& state) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 1;
  profile.tasks_per_machine = static_cast<double>(state.range(0));
  profile.target_alloc_ratio = 1e9;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerWeek;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTotalUsageOracle(cell, 0, kIntervalsPerDay));
  }
  state.SetItemsProcessed(state.iterations() * cell.num_intervals);
}
BENCHMARK(BM_TotalUsageOracle)->Arg(16)->Arg(64);

// The default synthetic simulation cell for engine-throughput benches:
// profile 'a' at a bench-friendly machine count, one week.
const CellTrace& SweepCell() {
  static const CellTrace* cell = [] {
    CellProfile profile = SimCellProfile('a');
    profile.num_machines = 16;
    GeneratorOptions options;
    options.num_intervals = kIntervalsPerWeek;
    auto* trace = new CellTrace(GenerateCellTrace(profile, options, Rng(6)));
    trace->FilterToServingTasks();
    return trace;
  }();
  return *cell;
}

// One machine through the fused engine (no oracle cache): steady-state
// per-machine simulation throughput in intervals/sec.
void BM_SimulateMachineFused(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  SimOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimulateMachine(cell, 0, NSigmaSpec(5.0), options, nullptr, nullptr));
  }
  state.counters["intervals_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cell.num_intervals),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateMachineFused);

// The streaming serve layer ingesting the full event stream of the default
// synthetic cell (arrivals, departures, one usage sample per resident task
// per interval). Arg(0): serial; Arg(1): sharded ingestion on the thread
// pool. events_per_second is the tracked serve-layer throughput number.
void BM_StreamIngest(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  ReplayOptions options;
  options.parallel = state.range(0) == 1;
  options.latency_sample_period = 0;  // Measure pure ingest, not the timers.
  uint64_t events = 0;
  for (auto _ : state) {
    StreamReplayer replayer(cell, ProductionMaxSpec(), options);
    replayer.AdvanceToEnd();
    events = replayer.Metrics().TotalEvents();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StreamIngest)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// One CRFNET ingest frame at the serve-loopback batch size (512 machines x
// 1 week streamed in 256-tick batches: about 2,823 events, 93 KB per
// frame). Arg(0): the client side, encoding the batch and sealing its frame
// into a reused buffer. Arg(1): the server side, DecodeFrame (checksum
// verify) plus DecodePayload (decode and validate) into a fresh request, as
// HandleIngest does. ns_per_event is each side's cost per event.
IngestBatchRequest MakeWireBatch() {
  constexpr int kEvents = 2823;
  constexpr Interval kTicks = 256;
  Rng rng(14);
  IngestBatchRequest batch;
  batch.machine = 17;
  batch.from_tick = 0;
  batch.until_tick = kTicks;
  batch.window_until = kTicks;
  for (int i = 0; i < kEvents; ++i) {
    StreamEvent event;
    event.kind = static_cast<StreamEventKind>(rng.UniformInt(3));
    event.task_index = static_cast<int32_t>(rng.UniformInt(1 << 20));
    event.tick = static_cast<Interval>(static_cast<int64_t>(i) * kTicks / kEvents);
    event.task_id = static_cast<TaskId>(rng.UniformInt(uint64_t{1} << 40));
    event.limit = 0.01 + 0.2 * rng.UniformDouble();
    event.usage = event.limit * rng.UniformDouble();
    batch.events.push_back(event);
  }
  return batch;
}

void BM_WireIngestFrame(benchmark::State& state) {
  const IngestBatchRequest batch = MakeWireBatch();
  std::vector<uint8_t> frame;
  AppendMessageFrame(WireOp::kIngestBatch, batch, frame);
  const auto start = std::chrono::steady_clock::now();
  if (state.range(0) == 0) {
    for (auto _ : state) {
      frame.clear();
      AppendMessageFrame(WireOp::kIngestBatch, batch, frame);
      benchmark::DoNotOptimize(frame.data());
      benchmark::ClobberMemory();
    }
  } else {
    for (auto _ : state) {
      WireOp op = WireOp::kError;
      std::span<const uint8_t> payload;
      size_t frame_bytes = 0;
      IngestBatchRequest decoded;
      const bool ok =
          DecodeFrame(frame, &op, &payload, &frame_bytes, nullptr) == FrameStatus::kFrame &&
          DecodePayload(payload, decoded);
      if (!ok) {
        state.SkipWithError("ingest frame did not decode");
        break;
      }
      benchmark::DoNotOptimize(decoded.events.data());
    }
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  state.counters["ns_per_event"] =
      elapsed_ns / (static_cast<double>(state.iterations()) * batch.events.size());
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_WireIngestFrame)->Arg(0)->Arg(1);

// A 16-point N-sigma parameter sweep over the default synthetic cell —
// the fig08-shaped workload. Arg(0): every sweep point recomputes the
// oracle; Arg(1): one OracleCache shared across all 16 points. The reported
// machines_per_second / intervals_per_second ratio between the two rows is
// the recorded oracle-cache speedup.
void BM_NSigmaSweep16(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  const bool use_cache = state.range(0) != 0;
  constexpr int kSweepPoints = 16;
  for (auto _ : state) {
    OracleCache cache;
    SimOptions options;
    if (use_cache) {
      options.oracle_cache = &cache;
    }
    for (int point = 0; point < kSweepPoints; ++point) {
      benchmark::DoNotOptimize(SimulateCell(cell, NSigmaSpec(2.0 + 0.5 * point), options));
    }
  }
  const double machine_sims = static_cast<double>(state.iterations()) * kSweepPoints *
                              static_cast<double>(cell.num_machines());
  state.counters["machines_per_second"] =
      benchmark::Counter(machine_sims, benchmark::Counter::kIsRate);
  state.counters["intervals_per_second"] = benchmark::Counter(
      machine_sims * static_cast<double>(cell.num_intervals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NSigmaSweep16)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The Fig 8+9-shaped predictor grid: the N-sigma multiplier/warm-up/history
// sweep plus the RC-like percentile/warm-up/history sweep, plus the
// chance-constrained target sweep and the Flex percentile/margin sweep (the
// same axes a Fig 8/9-style plot would walk for the new families), 27 points
// total. This is the workload the multi-spec sweep engine exists for.
std::vector<PredictorSpec> SweepGridSpecs() {
  std::vector<PredictorSpec> specs;
  for (const double n : {2.0, 3.0, 5.0, 10.0}) {
    specs.push_back(NSigmaSpec(n));
  }
  for (const int hours : {1, 2, 3}) {
    specs.push_back(NSigmaSpec(5.0, hours * kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    specs.push_back(NSigmaSpec(5.0, 2 * kIntervalsPerHour, hours * kIntervalsPerHour));
  }
  for (const double p : {80.0, 90.0, 95.0, 99.0}) {
    specs.push_back(RcLikeSpec(p));
  }
  for (const int hours : {1, 2, 3}) {
    specs.push_back(RcLikeSpec(95.0, hours * kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    specs.push_back(RcLikeSpec(95.0, 2 * kIntervalsPerHour, hours * kIntervalsPerHour));
  }
  for (const double target : {0.005, 0.01, 0.05, 0.10}) {
    specs.push_back(ChanceSpec(target));
  }
  for (const double p : {90.0, 95.0, 99.0}) {
    specs.push_back(FlexSpec(p));
  }
  return specs;
}

// The whole grid over the default cell. Arg(0): one SimulateCell per spec
// (the per-spec reference, with a shared OracleCache so only predictor work
// differs). Arg(1): one SimulateCellMulti walking each machine once. The
// machines_per_second ratio between the rows is the sweep-engine speedup
// tracked in BENCH_sweep.json.
void BM_SweepGrid(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  const std::vector<PredictorSpec> specs = SweepGridSpecs();
  const bool multi = state.range(0) != 0;
  for (auto _ : state) {
    OracleCache cache;
    SimOptions options;
    options.oracle_cache = &cache;
    if (multi) {
      benchmark::DoNotOptimize(SimulateCellMulti(cell, specs, options));
    } else {
      for (const PredictorSpec& spec : specs) {
        benchmark::DoNotOptimize(SimulateCell(cell, spec, options));
      }
    }
  }
  const double machine_sims = static_cast<double>(state.iterations()) * specs.size() *
                              static_cast<double>(cell.num_machines());
  state.counters["machines_per_second"] =
      benchmark::Counter(machine_sims, benchmark::Counter::kIsRate);
  state.counters["intervals_per_second"] = benchmark::Counter(
      machine_sims * static_cast<double>(cell.num_intervals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepGrid)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The closed-loop cluster engine on one thread and on the default pool:
// Arg(0) = a 1-thread pool (the step loop runs inline), Arg(1) =
// ThreadPool::Default(). Both are byte-identical in output; the counter
// ratio is the step-loop speedup.
void BM_ClusterSim(benchmark::State& state) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 32;
  ThreadPool serial(1);
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  options.pool = state.range(0) != 0 ? nullptr : &serial;
  int64_t attempts = 0;
  for (auto _ : state) {
    const ClusterSimResult result = RunClusterSim(profile, options, Rng(7));
    attempts += result.placement_attempts;
    benchmark::DoNotOptimize(result.tasks_placed);
  }
  const double machine_steps = static_cast<double>(state.iterations()) *
                               profile.num_machines * options.num_intervals;
  state.counters["machine_steps_per_second"] =
      benchmark::Counter(machine_steps, benchmark::Counter::kIsRate);
  state.counters["placements_per_second"] =
      benchmark::Counter(static_cast<double>(attempts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterSim)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// Steady-state placement cost in isolation: one Publish + one Place per
// iteration against a warm scheduler. Arg(0) = machine count, Arg(1) = 0 for
// the linear-scan reference (tests/reference), 1 for the library's
// tournament tree (O(M) vs O(log M)).
template <typename Placer>
void RunSchedulerPlace(benchmark::State& state) {
  const int num_machines = static_cast<int>(state.range(0));
  Placer scheduler(PackingPolicy::kBestFit, Rng(8));
  Rng rng(9);
  std::vector<double> free(num_machines);
  for (double& f : free) {
    f = 0.3 + 0.7 * rng.UniformDouble();
  }
  reference::PublishAll(scheduler, free);
  int machine = 0;
  for (auto _ : state) {
    scheduler.Publish(machine, 0.3 + 0.7 * rng.UniformDouble());
    machine = (machine + 1) % num_machines;
    benchmark::DoNotOptimize(scheduler.Place(0.05 + 0.1 * rng.UniformDouble(), {}));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SchedulerPlace(benchmark::State& state) {
  if (state.range(1) != 0) {
    RunSchedulerPlace<Scheduler>(state);
  } else {
    RunSchedulerPlace<reference::LinearScanScheduler>(state);
  }
}
BENCHMARK(BM_SchedulerPlace)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 0})
    ->Args({8192, 1});

// ---------------------------------------------------------------------------
// Trace layout: columnar arena vs the pre-refactor per-task-vector layout.
//
// AosTrace reconstructs the old array-of-structs representation (one heap
// vector of usage per task, one heap vector of task indices per machine) so
// the machine-scan throughput of the two layouts can be compared on identical
// data. The arena side streams through MachineSeriesCursor; the AoS side is
// the old per-call MachineUsageSeries (allocate an interval-length vector,
// walk every resident task's own heap buffer).

struct AosTask {
  Interval start = 0;
  double limit = 0.0;
  std::vector<float> usage;
};

struct AosTrace {
  Interval num_intervals = 0;
  std::vector<AosTask> tasks;
  std::vector<std::vector<int32_t>> machine_tasks;

  explicit AosTrace(const CellTrace& cell) : num_intervals(cell.num_intervals) {
    tasks.resize(static_cast<size_t>(cell.num_tasks()));
    for (int32_t i = 0; i < cell.num_tasks(); ++i) {
      const TaskView task = cell.task(i);
      tasks[i].start = task.start();
      tasks[i].limit = task.limit();
    }
    // Replay the pre-refactor growth pattern: one usage sample appended per
    // resident task per interval, so every task's vector grows interleaved
    // with every other's. This reproduces the fragmented heap the old
    // generator and cluster sim actually left behind, rather than the
    // artificially compact layout a bulk copy would produce.
    std::vector<int32_t> by_start(static_cast<size_t>(cell.num_tasks()));
    std::iota(by_start.begin(), by_start.end(), 0);
    const std::span<const Interval> starts = cell.task_starts();
    std::sort(by_start.begin(), by_start.end(),
              [starts](int32_t a, int32_t b) { return starts[a] < starts[b]; });
    std::vector<int32_t> active;
    size_t next = 0;
    for (Interval t = 0; t < num_intervals; ++t) {
      while (next < by_start.size() && starts[by_start[next]] <= t) {
        active.push_back(by_start[next++]);
      }
      for (size_t a = 0; a < active.size();) {
        const int32_t i = active[a];
        const std::span<const float> usage = cell.task(i).usage();
        const size_t k = tasks[i].usage.size();
        if (k < usage.size()) {
          tasks[i].usage.push_back(usage[k]);
          ++a;
        } else {
          active[a] = active.back();
          active.pop_back();
        }
      }
    }
    for (int32_t i = 0; i < cell.num_tasks(); ++i) {  // Samples past the trace end.
      const std::span<const float> usage = cell.task(i).usage();
      for (size_t k = tasks[i].usage.size(); k < usage.size(); ++k) {
        tasks[i].usage.push_back(usage[k]);
      }
    }
    machine_tasks.resize(cell.num_machines());
    for (int m = 0; m < cell.num_machines(); ++m) {
      const std::span<const int32_t> row = cell.machine_tasks(m);
      machine_tasks[m].assign(row.begin(), row.end());
    }
  }

  // The old CellTrace::MachineUsageSeries, verbatim shape: a fresh output
  // allocation per call and a per-task rescan over [start, end).
  std::vector<double> MachineUsageSeries(int machine_index) const {
    std::vector<double> series(num_intervals, 0.0);
    for (const int32_t task_index : machine_tasks[machine_index]) {
      const AosTask& task = tasks[task_index];
      const Interval end =
          std::min(task.start + static_cast<Interval>(task.usage.size()), num_intervals);
      for (Interval t = std::max<Interval>(task.start, 0); t < end; ++t) {
        series[t] += task.usage[t - task.start];
      }
    }
    return series;
  }

  Interval Departure(const AosTask& task) const {
    const Interval end = task.start + static_cast<Interval>(task.usage.size());
    return std::max(end, task.start + 1);
  }

  // The old CellTrace::MachineLimitSeries shape: another allocation and
  // another full per-task pass over the same index.
  std::vector<double> MachineLimitSeries(int machine_index) const {
    std::vector<double> series(num_intervals, 0.0);
    for (const int32_t task_index : machine_tasks[machine_index]) {
      const AosTask& task = tasks[task_index];
      const Interval end = std::min(Departure(task), num_intervals);
      for (Interval t = std::max<Interval>(task.start, 0); t < end; ++t) {
        series[t] += task.limit;
      }
    }
    return series;
  }

  // And a third pass for the resident count.
  std::vector<int32_t> MachineResidentCount(int machine_index) const {
    std::vector<int32_t> series(num_intervals, 0);
    for (const int32_t task_index : machine_tasks[machine_index]) {
      const AosTask& task = tasks[task_index];
      const Interval end = std::min(Departure(task), num_intervals);
      for (Interval t = std::max<Interval>(task.start, 0); t < end; ++t) {
        ++series[t];
      }
    }
    return series;
  }

  int64_t HeapBytes() const {
    int64_t bytes = static_cast<int64_t>(tasks.capacity() * sizeof(AosTask));
    for (const AosTask& task : tasks) {
      bytes += static_cast<int64_t>(task.usage.capacity() * sizeof(float));
    }
    bytes += static_cast<int64_t>(machine_tasks.capacity() * sizeof(std::vector<int32_t>));
    for (const std::vector<int32_t>& row : machine_tasks) {
      bytes += static_cast<int64_t>(row.capacity() * sizeof(int32_t));
    }
    return bytes;
  }
};

// Full-cell machine scan: the per-interval (usage sum, limit sum, resident
// count) triple for every machine — exactly what fig3/fig12/trace_stats
// consume. The AoS side runs the three pre-refactor helpers (three output
// allocations, three passes over the scattered heap vectors per machine);
// the arena side streams all three through one cursor pass over the sealed
// slab. The checksum keeps both sides honest and unoptimizable.
double ScanAllMachinesAos(const AosTrace& aos) {
  double checksum = 0.0;
  for (size_t m = 0; m < aos.machine_tasks.size(); ++m) {
    const std::vector<double> usage = aos.MachineUsageSeries(static_cast<int>(m));
    const std::vector<double> limits = aos.MachineLimitSeries(static_cast<int>(m));
    const std::vector<int32_t> resident = aos.MachineResidentCount(static_cast<int>(m));
    for (Interval t = 0; t < aos.num_intervals; ++t) {
      checksum += usage[t] + limits[t] + static_cast<double>(resident[t]);
    }
  }
  return checksum;
}

double ScanAllMachinesArena(const CellTrace& cell, MachineSeriesCursor& cursor) {
  double checksum = 0.0;
  for (int m = 0; m < cell.num_machines(); ++m) {
    cursor.Reset(m);
    while (cursor.Next()) {
      checksum += cursor.usage() + cursor.limit_sum() + static_cast<double>(cursor.resident());
    }
  }
  return checksum;
}

// Arg(0) = 0: per-task-vector AoS layout; Arg(0) = 1: columnar arena via the
// streaming cursor. The machine_scans_per_second ratio between the two rows
// is the layout speedup tracked in BENCH_trace.json.
void BM_TraceLayout(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  const bool arena = state.range(0) != 0;
  const AosTrace aos(cell);
  MachineSeriesCursor cursor(cell);
  for (auto _ : state) {
    const double checksum = arena ? ScanAllMachinesArena(cell, cursor) : ScanAllMachinesAos(aos);
    benchmark::DoNotOptimize(checksum);
  }
  const double machine_scans =
      static_cast<double>(state.iterations()) * static_cast<double>(cell.num_machines());
  state.counters["machine_scans_per_second"] =
      benchmark::Counter(machine_scans, benchmark::Counter::kIsRate);
  state.counters["intervals_per_second"] = benchmark::Counter(
      machine_scans * static_cast<double>(cell.num_intervals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceLayout)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Thread-matrix helpers shared by the cluster and stream recorders.

// Cores visible to this process; recorded in every matrix row so the check
// scripts know whether a speedup target was physically measurable on the
// host that produced the row (an 8-thread pool on a 1-core container cannot
// exceed 1x no matter how contention-free the engine is).
int HostCores() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Pool sizes for the bench matrices, from $CRF_BENCH_THREADS (default
// "1,4,8,16"). The serial lane (1) is always included — it is the baseline
// every speedup in the matrix is computed against.
std::vector<int> BenchThreadCounts() {
  const std::string spec = GetEnvString("CRF_BENCH_THREADS", "1,4,8,16");
  std::vector<int> counts{1};
  std::stringstream in(spec);
  std::string token;
  while (std::getline(in, token, ',')) {
    const int n = std::atoi(token.c_str());
    if (n >= 1) {
      counts.push_back(n);
    }
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// ---------------------------------------------------------------------------
// BENCH_cluster.json: tracked cluster-engine thread-scaling matrix.
//
// Controlled by $CRF_CLUSTER_BENCH: "off" skips, "short" (default) times one
// day over a small cell, "full" one day over a 2k-machine cell — the problem
// size at which the per-interval fan-out amortizes (ROADMAP "make
// parallelism actually pay") — and "scale" runs the cloud-scale lane below
// instead of the matrix. Every lane runs the indexed placement engine. v3
// added the memory columns: every row reports `peak_rss_bytes` (the lane's
// VmHWM), plus `load_ms`/`load_mode` so matrix rows (which generate their
// cell in-process, load_mode "generated", load_ms 0) and scale rows (which
// mmap a streamed .crftrace) share one schema.
//
// v5 is one row per pool size in $CRF_BENCH_THREADS on the cell's one
// scheduler; the threads-1 row is serial and is the speedup baseline. Rows
// carry the packing telemetry (`violation_rate_p90`,
// `pending_task_intervals`, `tasks_timed_out`), which the determinism
// contract makes identical at every pool size. The record lands in
// $CRF_BENCH_CLUSTER_FILE (default ./BENCH_cluster.json) as
// {"schema":"crf-cluster-bench-v5","entries":[...]}; reruns append, so the
// tracked file accumulates a regression history.
//
// The "scale" lane is the cloud-scale trace-I/O proof (DESIGN.md §6c): it
// stream-generates a $CRF_SCALE_MACHINES-machine (default 100000) one-day
// binary trace with bounded-probe placement ($CRF_SCALE_PROBES, default 16)
// — never holding the cell in memory — then mmap-loads it and drives the
// serial streaming replayer over the mapped arena with per-machine page
// drops. Its row records gen_ms / file_bytes for the writer, load_ms /
// resident_after_load_bytes for the mapped open, events_per_sec for the
// replay, and two memory truths: resident_after_load_bytes and
// resident_after_replay_bytes — the arena pages this process materialized
// after the open and after walking the entire trace — must both stay an
// order of magnitude under file_bytes (the zero-copy claim), while
// peak_rss_bytes (load + replay VmHWM) is recorded un-gated because it is
// dominated by the replayer's own per-machine predictor state, which scales
// with the cell no matter how the trace is loaded. The trace lands in
// $CRF_BENCH_SCALE_TRACE when set (kept), else in a temp file (deleted).

struct ClusterBenchTiming {
  double machine_steps_per_sec = 0.0;
  double placements_per_sec = 0.0;
  int64_t placement_attempts = 0;
  int64_t tasks_placed = 0;
  // Packing telemetry; identical at every pool size.
  int64_t tasks_timed_out = 0;
  int64_t pending_task_intervals = 0;
  double violation_rate_p90 = 0.0;
};

ClusterBenchTiming TimeClusterSim(const CellProfile& profile,
                                  const ClusterSimOptions& options) {
  // One warm-up run (page in the code and the allocator), then one timed run.
  RunClusterSim(profile, options, Rng(10));
  const auto start = std::chrono::steady_clock::now();
  const ClusterSimResult result = RunClusterSim(profile, options, Rng(10));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ClusterBenchTiming timing;
  timing.machine_steps_per_sec =
      static_cast<double>(profile.num_machines) * options.num_intervals / seconds;
  timing.placements_per_sec = static_cast<double>(result.placement_attempts) / seconds;
  timing.placement_attempts = result.placement_attempts;
  timing.tasks_placed = result.tasks_placed;
  timing.tasks_timed_out = result.tasks_timed_out;
  timing.pending_task_intervals = result.pending_task_intervals;
  const std::vector<ClusterSimResult> results{result};
  const GroupMetrics metrics = ComputeGroupMetrics(result.predictor_name, results);
  timing.violation_rate_p90 = metrics.violation_rate.Quantile(0.9);
  return timing;
}

std::string TodayUtc() {
  const std::time_t now = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buffer[16];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%d", &tm_utc);
  return buffer;
}

// Appends one entry to a tracked {"schema":..., "entries":[...]} JSON file,
// keeping prior history; a missing or foreign-schema file is rewritten from
// scratch.
void AppendTrackedBenchEntry(const std::string& path, const std::string& schema,
                             const std::string& entry) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  std::string output;
  const size_t close = existing.rfind(']');
  if (close != std::string::npos &&
      existing.find("\"" + schema + "\"") != std::string::npos) {
    // Append to the existing entries array, keeping prior history.
    const bool has_entries = existing.find('{', existing.find("\"entries\"")) < close;
    output = existing.substr(0, close);
    while (!output.empty() && (output.back() == ' ' || output.back() == '\n')) {
      output.pop_back();
    }
    output += has_entries ? ",\n" : "\n";
    output += entry;
    output += "\n  ";
    output += existing.substr(close);
  } else {
    output = "{\n  \"schema\": \"" + schema + "\",\n  \"entries\": [\n" + entry + "\n  ]\n}\n";
  }
  std::ofstream out(path, std::ios::trunc);
  out << output;
}

void RecordClusterScaleBench();

void RecordClusterBench() {
  const std::string mode = GetEnvString("CRF_CLUSTER_BENCH", "short");
  if (mode == "off") {
    return;
  }
  if (mode == "scale") {
    RecordClusterScaleBench();
    return;
  }
  const bool full = mode == "full";

  CellProfile profile = SimCellProfile('a');
  profile.num_machines = full ? 2048 : 192;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  // The matrix isolates the step-loop threading. (BM_SchedulerPlace tracks
  // linear-scan vs indexed placement in isolation.)

  struct Lane {
    int threads = 1;
    ClusterBenchTiming timing;
    int64_t peak_rss_bytes = 0;
  };
  std::vector<Lane> lanes;
  for (const int threads : BenchThreadCounts()) {
    ThreadPool pool(threads);
    options.pool = &pool;
    ResetPeakRss();
    Lane lane{threads, TimeClusterSim(profile, options), 0};
    lane.peak_rss_bytes = ReadPeakRssBytes();
    lanes.push_back(lane);
  }

  // Integrity gate: the determinism contract says every pool size places
  // exactly the same tasks, so lanes with diverging counters would be
  // timing different computations.
  const Lane& serial = lanes.front();
  for (const Lane& lane : lanes) {
    if (lane.timing.tasks_placed != serial.timing.tasks_placed ||
        lane.timing.placement_attempts != serial.timing.placement_attempts) {
      std::fprintf(stderr,
                   "cluster bench: lanes diverged (threads=%d placed %lld vs "
                   "%lld), not recording\n",
                   lane.threads, static_cast<long long>(lane.timing.tasks_placed),
                   static_cast<long long>(serial.timing.tasks_placed));
      return;
    }
  }

  const std::string matrix = TodayUtc() + std::string("-") + (full ? "full" : "short");
  const double base = serial.timing.machine_steps_per_sec;
  const std::string path = GetEnvString("CRF_BENCH_CLUSTER_FILE", "BENCH_cluster.json");
  for (const Lane& lane : lanes) {
    // The serial row reports speedup 1.0 by definition.
    const double speedup = lane.threads == 1 ? 1.0 : lane.timing.machine_steps_per_sec / base;
    std::ostringstream entry;
    entry.precision(6);
    entry << "    {\n"
          << "      \"date\": \"" << TodayUtc() << "\",\n"
          << "      \"mode\": \"" << (full ? "full" : "short") << "\",\n"
          << "      \"matrix\": \"" << matrix << "\",\n"
          << "      \"threads\": " << lane.threads << ",\n"
          << "      \"parallel\": " << (lane.threads > 1 ? "true" : "false") << ",\n"
          << "      \"host_cores\": " << HostCores() << ",\n"
          << "      \"num_machines\": " << profile.num_machines << ",\n"
          << "      \"num_intervals\": " << options.num_intervals << ",\n"
          << "      \"machine_steps_per_sec\": " << lane.timing.machine_steps_per_sec << ",\n"
          << "      \"placements_per_sec\": " << lane.timing.placements_per_sec << ",\n"
          << "      \"parallel_speedup\": " << speedup << ",\n"
          << "      \"placement_attempts\": " << lane.timing.placement_attempts << ",\n"
          << "      \"tasks_placed\": " << lane.timing.tasks_placed << ",\n"
          << "      \"tasks_timed_out\": " << lane.timing.tasks_timed_out << ",\n"
          << "      \"pending_task_intervals\": " << lane.timing.pending_task_intervals
          << ",\n"
          << "      \"violation_rate_p90\": " << lane.timing.violation_rate_p90 << ",\n"
          << "      \"peak_rss_bytes\": " << lane.peak_rss_bytes << ",\n"
          << "      \"load_ms\": 0,\n"
          << "      \"load_mode\": \"generated\"\n"
          << "    }";
    AppendTrackedBenchEntry(path, "crf-cluster-bench-v5", entry.str());
    std::printf("cluster bench (%s): threads=%d %.0f machine-steps/s (%.2fx), "
                "%.0f placements/s -> %s\n",
                full ? "full" : "short", lane.threads, lane.timing.machine_steps_per_sec,
                speedup, lane.timing.placements_per_sec, path.c_str());
  }
}

// $CRF_CLUSTER_BENCH=scale: the cloud-scale stream-generate / mmap-load /
// streaming-replay pipeline (see the v3 schema comment above). One row per
// run, mode "scale".
void RecordClusterScaleBench() {
  const int num_machines = static_cast<int>(GetEnvInt("CRF_SCALE_MACHINES", 100000));
  const int probes = static_cast<int>(GetEnvInt("CRF_SCALE_PROBES", 16));
  const int threads = static_cast<int>(GetEnvInt("CRF_SCALE_THREADS", HostCores()));
  std::string trace_path = GetEnvString("CRF_BENCH_SCALE_TRACE", "");
  const bool keep_trace = !trace_path.empty();
  if (!keep_trace) {
    trace_path =
        (std::filesystem::temp_directory_path() / "crf_bench_scale.crftrace").string();
  }

  CellProfile profile = SimCellProfile('a');
  profile.num_machines = num_machines;
  GeneratorOptions gen_options;
  gen_options.num_intervals = kIntervalsPerDay;
  // A full worst-fit scan per placement is O(machines); at 100k machines the
  // placement phase alone would dwarf the I/O being measured, so the scale
  // lane uses bounded-probe placement (still deterministic for the seed).
  gen_options.placement_probes = probes;
  // Placement is serial; the per-machine usage loops run on the pool. The
  // bytes depend on (seed, probes) but never on the pool size.
  std::optional<ThreadPool> gen_pool;
  if (threads > 1) {
    gen_pool.emplace(threads);
    gen_options.pool = &*gen_pool;
  }

  std::printf(
      "cluster bench (scale): streaming %d machines x %d intervals "
      "(%d probes, %d threads) -> %s\n",
      num_machines, static_cast<int>(gen_options.num_intervals), probes, threads,
      trace_path.c_str());
  ResetPeakRss();
  std::string error;
  StreamedTraceInfo info;
  const auto gen_start = std::chrono::steady_clock::now();
  if (!GenerateCellTraceToFile(profile, gen_options, Rng(10), trace_path, &error, &info)) {
    std::fprintf(stderr, "cluster bench (scale): streaming generation failed: %s\n",
                 error.c_str());
    return;
  }
  const double gen_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - gen_start)
          .count();
  const int64_t gen_peak_rss = ReadPeakRssBytes();

  ResetPeakRss();
  TraceLoadOptions load_options;
  load_options.mode = TraceLoadMode::kMapped;
  const auto load_start = std::chrono::steady_clock::now();
  std::optional<CellTrace> cell = LoadCellTrace(trace_path, load_options, &error);
  const double load_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - load_start)
          .count();
  if (!cell.has_value()) {
    std::fprintf(stderr, "cluster bench (scale): mmap load failed: %s\n", error.c_str());
    return;
  }
  // Arena pages this process materialized during the open (the mapping's own
  // smaps Rss — not mincore residency, which would count the hot page cache
  // the writer just left behind).
  const int64_t resident_after_load = ReadMappedFileRssBytes(trace_path);

  // Serial streaming replay straight off the mapped arena: the replayer
  // drops each machine's usage pages after its last tick, so peak RSS tracks
  // machines-in-flight, not the trace.
  ReplayOptions replay_options;
  replay_options.parallel = false;
  replay_options.latency_sample_period = 0;
  const auto replay_start = std::chrono::steady_clock::now();
  StreamReplayer replayer(*cell, ProductionMaxSpec(), replay_options);
  replayer.AdvanceToEnd();
  const uint64_t events = replayer.Metrics().TotalEvents();
  const SimResult result = replayer.Finish();
  const double replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - replay_start).count();
  double mean_violation_rate = result.MeanViolationRate();
  benchmark::DoNotOptimize(mean_violation_rate);
  const double events_per_sec = static_cast<double>(events) / replay_seconds;
  // Covers the mapped load and the whole replay; generation is reported
  // separately (its watermark belongs to the writer, not the reader path).
  // Peak RSS here is dominated by the replayer's per-machine predictor and
  // per-task history state — O(cell), not O(trace) — so it is recorded, not
  // gated against the file size. The zero-copy claim for the replay phase is
  // the next line: arena pages still resident once the replay has walked the
  // whole trace. DropMachinePages must have kept that near the metadata
  // floor; a replay that materialized the bulk slabs shows up as ~file_bytes.
  const int64_t peak_rss = ReadPeakRssBytes();
  const int64_t resident_after_replay = ReadMappedFileRssBytes(trace_path);

  std::ostringstream entry;
  entry.precision(6);
  entry << "    {\n"
        << "      \"date\": \"" << TodayUtc() << "\",\n"
        << "      \"mode\": \"scale\",\n"
        << "      \"matrix\": \"" << TodayUtc() << "-scale\",\n"
        << "      \"threads\": " << std::max(1, threads) << ",\n"
        << "      \"parallel\": " << (threads > 1 ? "true" : "false") << ",\n"
        << "      \"host_cores\": " << HostCores() << ",\n"
        << "      \"num_machines\": " << num_machines << ",\n"
        << "      \"num_intervals\": " << gen_options.num_intervals << ",\n"
        << "      \"num_tasks\": " << info.num_tasks << ",\n"
        << "      \"placement_probes\": " << probes << ",\n"
        << "      \"placement_ms\": " << info.placement_ms << ",\n"
        << "      \"placement_attempts\": " << info.placement_attempts << ",\n"
        << "      \"placements_per_sec\": "
        << (info.placement_ms > 0.0 ? info.placement_attempts * 1000.0 / info.placement_ms
                                    : 0.0)
        << ",\n"
        << "      \"file_bytes\": " << info.file_bytes << ",\n"
        << "      \"gen_ms\": " << gen_ms << ",\n"
        << "      \"gen_peak_rss_bytes\": " << gen_peak_rss << ",\n"
        << "      \"load_ms\": " << load_ms << ",\n"
        << "      \"load_mode\": \"mmap\",\n"
        << "      \"resident_after_load_bytes\": " << resident_after_load << ",\n"
        << "      \"resident_after_replay_bytes\": " << resident_after_replay << ",\n"
        << "      \"events\": " << events << ",\n"
        << "      \"events_per_sec\": " << events_per_sec << ",\n"
        << "      \"peak_rss_bytes\": " << peak_rss << "\n"
        << "    }";
  const std::string path = GetEnvString("CRF_BENCH_CLUSTER_FILE", "BENCH_cluster.json");
  AppendTrackedBenchEntry(path, "crf-cluster-bench-v5", entry.str());
  std::printf(
      "cluster bench (scale): %d machines, %lld tasks, gen %.0f ms "
      "(peak rss %.1f MB), mmap load %.2f ms (%.1f MB resident of %.1f MB file), "
      "replay %.0f events/s (%.1f MB arena resident after, peak rss %.1f MB) -> %s\n",
      num_machines, static_cast<long long>(info.num_tasks), gen_ms,
      gen_peak_rss / 1048576.0, load_ms, resident_after_load / 1048576.0,
      info.file_bytes / 1048576.0, events_per_sec, resident_after_replay / 1048576.0,
      peak_rss / 1048576.0, path.c_str());

  if (!keep_trace) {
    std::error_code ec;
    std::filesystem::remove(trace_path, ec);
  }
}

// ---------------------------------------------------------------------------
// BENCH_sweep.json: tracked sweep-engine throughput record.
//
// Controlled by $CRF_SWEEP_BENCH: "off" skips, "short" (default) runs the
// 27-point Fig 8+9-style grid (n-sigma, rc-like, chance, flex axes) over a
// small cell-half-week, "full" over a larger cell-week. Times the per-spec
// SimulateCell loop against one SimulateCellMulti call — both behind one
// shared OracleCache, so the ratio isolates the engine, not oracle
// recomputation. The record lands in $CRF_BENCH_SWEEP_FILE (default
// ./BENCH_sweep.json) as {"schema":"crf-sweep-bench-v2","entries":[...]};
// reruns append. v2 adds the grid-level tail columns (worst violation
// streak, worst severity p999, worst savings-at-risk across all
// spec-machine pairs) so the tracked record captures the risk profile of
// the grid, not just its mean throughput.

void RecordSweepBench() {
  const std::string mode = GetEnvString("CRF_SWEEP_BENCH", "short");
  if (mode == "off") {
    return;
  }
  const bool full = mode == "full";

  CellProfile profile = SimCellProfile('a');
  profile.num_machines = full ? 48 : 16;
  GeneratorOptions gen_options;
  gen_options.num_intervals = full ? kIntervalsPerWeek : kIntervalsPerWeek / 2;
  CellTrace cell = GenerateCellTrace(profile, gen_options, Rng(11));
  cell.FilterToServingTasks();
  const std::vector<PredictorSpec> specs = SweepGridSpecs();

  OracleCache cache;
  SimOptions options;
  options.oracle_cache = &cache;

  // Warm-up pass: pages in the code and fills the oracle cache, so both
  // timed passes run against a warm memo and differ only in engine work.
  SimulateCellMulti(cell, specs, options);

  const auto per_spec_start = std::chrono::steady_clock::now();
  std::vector<SimResult> per_spec;
  per_spec.reserve(specs.size());
  for (const PredictorSpec& spec : specs) {
    per_spec.push_back(SimulateCell(cell, spec, options));
  }
  const double per_spec_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - per_spec_start)
          .count();

  const auto multi_start = std::chrono::steady_clock::now();
  const std::vector<SimResult> multi = SimulateCellMulti(cell, specs, options);
  const double multi_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - multi_start).count();

  // Integrity gate: the engines claim matching metrics (including the
  // crf/risk tail metrics), so a tracked speedup with diverging results
  // would be meaningless.
  int64_t total_violations = 0;
  int64_t max_violation_streak = 0;
  double worst_severity_p999 = 0.0;
  double worst_savings_at_risk = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < specs.size(); ++s) {
    for (size_t m = 0; m < per_spec[s].machines.size(); ++m) {
      const MachineMetrics& a = per_spec[s].machines[m];
      const MachineMetrics& b = multi[s].machines[m];
      if (a.violations != b.violations ||
          a.tail.max_violation_streak != b.tail.max_violation_streak ||
          a.tail.severity_p999 != b.tail.severity_p999 ||
          a.tail.savings_at_risk != b.tail.savings_at_risk) {
        std::fprintf(stderr,
                     "sweep bench: engines diverged (spec %zu machine %zu), not recording\n",
                     s, m);
        return;
      }
      total_violations += a.violations;
      max_violation_streak = std::max(max_violation_streak, a.tail.max_violation_streak);
      worst_severity_p999 = std::max(worst_severity_p999, a.tail.severity_p999);
      if (a.occupied_intervals > 0) {
        worst_savings_at_risk = std::min(worst_savings_at_risk, a.tail.savings_at_risk);
      }
    }
    const double savings_delta =
        std::abs(per_spec[s].MeanCellSavings() - multi[s].MeanCellSavings());
    if (savings_delta > 1e-9) {
      std::fprintf(stderr, "sweep bench: savings diverged (spec %zu), not recording\n", s);
      return;
    }
  }

  const double machine_sims =
      static_cast<double>(specs.size()) * static_cast<double>(cell.num_machines());
  const double speedup = per_spec_seconds / multi_seconds;
  std::ostringstream entry;
  entry.precision(6);
  entry << "    {\n"
        << "      \"date\": \"" << TodayUtc() << "\",\n"
        << "      \"mode\": \"" << (full ? "full" : "short") << "\",\n"
        << "      \"threads\": " << ThreadPool::Default().num_threads() << ",\n"
        << "      \"num_machines\": " << profile.num_machines << ",\n"
        << "      \"num_intervals\": " << gen_options.num_intervals << ",\n"
        << "      \"num_specs\": " << specs.size() << ",\n"
        << "      \"per_spec_machines_per_sec\": " << machine_sims / per_spec_seconds << ",\n"
        << "      \"multi_machines_per_sec\": " << machine_sims / multi_seconds << ",\n"
        << "      \"speedup\": " << speedup << ",\n"
        << "      \"total_violations\": " << total_violations << ",\n"
        << "      \"max_violation_streak\": " << max_violation_streak << ",\n"
        << "      \"worst_severity_p999\": " << worst_severity_p999 << ",\n"
        << "      \"worst_savings_at_risk\": "
        << (std::isfinite(worst_savings_at_risk) ? worst_savings_at_risk : 0.0) << "\n"
        << "    }";

  const std::string path = GetEnvString("CRF_BENCH_SWEEP_FILE", "BENCH_sweep.json");
  AppendTrackedBenchEntry(path, "crf-sweep-bench-v2", entry.str());
  std::printf("sweep bench (%s): per-spec %.3fs multi %.3fs over %zu specs (%.2fx) -> %s\n",
              full ? "full" : "short", per_spec_seconds, multi_seconds, specs.size(), speedup,
              path.c_str());
}

// ---------------------------------------------------------------------------
// BENCH_trace.json: tracked trace-layout throughput record.
//
// Controlled by $CRF_TRACE_BENCH: "off" skips, "short" (default) scans a
// 16-machine half-week cell, "full" a 64-machine fortnight (long enough
// that the arena's bulk dwarfs the per-task metadata a mapped open
// faults in, so the residency ratio below is a clean order-of-magnitude
// signal). Times full-cell
// machine scans through the pre-refactor per-task-vector AoS layout against
// the columnar arena + MachineSeriesCursor on identical data, and records
// the resident footprint of each layout in bytes per task-interval. v2 adds
// the load-path comparison: the cell is saved as a binary .crftrace and
// opened both ways — heap (one fread of the whole arena) and mmap
// (zero-copy) — recording per-mode load time and the process-RSS growth of
// the open, before anything touches the samples. A heap load materializes
// the whole arena; the mapped open only faults the metadata slabs the
// validator reads, so both ratios are the tracked order-of-magnitude proof
// of the zero-copy claim. The record lands
// in $CRF_BENCH_TRACE_FILE (default ./BENCH_trace.json) as
// {"schema":"crf-trace-bench-v2","entries":[...]}; reruns append.

void RecordTraceBench() {
  const std::string mode = GetEnvString("CRF_TRACE_BENCH", "short");
  if (mode == "off") {
    return;
  }
  const bool full = mode == "full";

  CellProfile profile = SimCellProfile('a');
  profile.num_machines = full ? 64 : 16;
  GeneratorOptions gen_options;
  gen_options.num_intervals = full ? 2 * kIntervalsPerWeek : kIntervalsPerWeek / 2;
  CellTrace cell = GenerateCellTrace(profile, gen_options, Rng(12));
  cell.FilterToServingTasks();
  const AosTrace aos(cell);
  MachineSeriesCursor cursor(cell);

  // Integrity gate: both layouts must produce the same per-machine usage,
  // limit, and resident series, or the tracked speedup is comparing
  // different computations.
  for (int m = 0; m < cell.num_machines(); ++m) {
    const std::vector<double> usage = aos.MachineUsageSeries(m);
    const std::vector<double> limits = aos.MachineLimitSeries(m);
    const std::vector<int32_t> resident = aos.MachineResidentCount(m);
    cursor.Reset(m);
    Interval t = 0;
    while (cursor.Next()) {
      if (std::abs(cursor.usage() - usage[t]) > 1e-6 ||
          std::abs(cursor.limit_sum() - limits[t]) > 1e-6 ||
          cursor.resident() != resident[t]) {
        std::fprintf(stderr, "trace bench: layouts diverged (machine %d interval %d)\n", m,
                     static_cast<int>(t));
        return;
      }
      ++t;
    }
    if (t != cell.num_intervals) {
      std::fprintf(stderr, "trace bench: cursor stopped early (machine %d)\n", m);
      return;
    }
  }

  const auto time_scans = [](auto&& scan) {
    scan();  // Warm-up: page in the layout before timing.
    int reps = 0;
    const auto start = std::chrono::steady_clock::now();
    double seconds = 0.0;
    do {
      double checksum = scan();
      benchmark::DoNotOptimize(checksum);
      ++reps;
      seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (seconds < 0.5);
    return seconds / reps;
  };
  const double aos_seconds = time_scans([&] { return ScanAllMachinesAos(aos); });
  const double arena_seconds =
      time_scans([&] { return ScanAllMachinesArena(cell, cursor); });

  const double scans = static_cast<double>(cell.num_machines());
  const double speedup = aos_seconds / arena_seconds;
  const int64_t task_intervals = cell.usage_sample_count();
  const double arena_bytes_per_ti =
      task_intervals > 0
          ? static_cast<double>(cell.arena_bytes().size()) / static_cast<double>(task_intervals)
          : 0.0;
  const double aos_bytes_per_ti =
      task_intervals > 0
          ? static_cast<double>(aos.HeapBytes()) / static_cast<double>(task_intervals)
          : 0.0;

  // Load-path comparison: save the cell as a binary trace, then open it
  // heap vs mmap, measuring each quantity under the cache condition where
  // it means something.
  //
  // Residency is measured on a cold page cache (fsync + POSIX_FADV_DONTNEED
  // first): a freshly written file's cache sits in large folios, and
  // faulting one page of a folio maps the whole folio, crediting the mapped
  // open with pages it never asked for. Cold, a heap load materializes the
  // whole arena by construction (one fread into a fresh buffer) while a
  // mapped load materializes only the pages the validator touched — read
  // from the mapping's own smaps Rss (mincore would count page-cache pages
  // the process never touched, whole-process RSS deltas pick up allocator
  // churn).
  //
  // Load time is then measured hot (best of 3 once the cache is repopulated):
  // that isolates the copy-vs-map cost the load mode controls, where cold
  // timing would mostly rank the disk scheduler (one sequential fread vs the
  // validator's scattered faults with readahead off).
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "crf_bench_trace.crftrace").string();
  std::string save_error;
  if (!SaveCellTraceBinary(cell, trace_path, &save_error)) {
    std::fprintf(stderr, "trace bench: save failed: %s\n", save_error.c_str());
    return;
  }
  const auto drop_file_cache = [&trace_path] {
    const int fd = open(trace_path.c_str(), O_RDONLY);
    if (fd < 0) {
      return;
    }
    fsync(fd);
    posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    close(fd);
  };
  const auto measure_load = [&](TraceLoadMode load_mode, int64_t* resident_bytes) {
    TraceLoadOptions load_options;
    load_options.mode = load_mode;
    const auto open_trace = [&](std::string* error) {
      return LoadCellTrace(trace_path, load_options, error);
    };
    // Cold rep: residency.
    drop_file_cache();
    *resident_bytes = 0;
    {
      std::string error;
      std::optional<CellTrace> loaded = open_trace(&error);
      if (!loaded.has_value()) {
        std::fprintf(stderr, "trace bench: load failed: %s\n", error.c_str());
        return std::numeric_limits<double>::infinity();
      }
      *resident_bytes = loaded->is_mapped()
                            ? ReadMappedFileRssBytes(trace_path)
                            : static_cast<int64_t>(loaded->arena_bytes().size());
    }
    // Hot reps: load time. The cold rep repopulated every page this mode
    // reads, and rep 0 is discarded as one extra warm-up, so timed reps see
    // a fully warm cache for their access pattern.
    double best_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 4; ++rep) {
      std::string error;
      const auto start = std::chrono::steady_clock::now();
      std::optional<CellTrace> loaded = open_trace(&error);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
      if (!loaded.has_value()) {
        std::fprintf(stderr, "trace bench: load failed: %s\n", error.c_str());
        return std::numeric_limits<double>::infinity();
      }
      if (rep > 0) {  // rep 0 is the cache warm-up
        best_ms = std::min(best_ms, ms);
      }
    }
    return best_ms;
  };
  int64_t heap_resident = 0;
  int64_t mmap_resident = 0;
  const double heap_load_ms = measure_load(TraceLoadMode::kHeap, &heap_resident);
  const double mmap_load_ms = measure_load(TraceLoadMode::kMapped, &mmap_resident);
  {
    std::error_code ec;
    std::filesystem::remove(trace_path, ec);
  }
  if (!std::isfinite(heap_load_ms) || !std::isfinite(mmap_load_ms)) {
    return;
  }
  const double load_speedup = mmap_load_ms > 0.0 ? heap_load_ms / mmap_load_ms : 0.0;

  std::ostringstream entry;
  entry.precision(6);
  entry << "    {\n"
        << "      \"date\": \"" << TodayUtc() << "\",\n"
        << "      \"mode\": \"" << (full ? "full" : "short") << "\",\n"
        << "      \"num_machines\": " << cell.num_machines() << ",\n"
        << "      \"num_intervals\": " << cell.num_intervals << ",\n"
        << "      \"num_tasks\": " << cell.num_tasks() << ",\n"
        << "      \"task_intervals\": " << task_intervals << ",\n"
        << "      \"aos_machine_scans_per_sec\": " << scans / aos_seconds << ",\n"
        << "      \"arena_machine_scans_per_sec\": " << scans / arena_seconds << ",\n"
        << "      \"speedup\": " << speedup << ",\n"
        << "      \"aos_bytes_per_task_interval\": " << aos_bytes_per_ti << ",\n"
        << "      \"arena_bytes_per_task_interval\": " << arena_bytes_per_ti << ",\n"
        << "      \"heap_load_ms\": " << heap_load_ms << ",\n"
        << "      \"mmap_load_ms\": " << mmap_load_ms << ",\n"
        << "      \"heap_load_resident_bytes\": " << heap_resident << ",\n"
        << "      \"mmap_load_resident_bytes\": " << mmap_resident << ",\n"
        << "      \"load_speedup\": " << load_speedup << "\n"
        << "    }";

  const std::string path = GetEnvString("CRF_BENCH_TRACE_FILE", "BENCH_trace.json");
  AppendTrackedBenchEntry(path, "crf-trace-bench-v2", entry.str());
  std::printf(
      "trace bench (%s): aos %.0f arena %.0f machine-scans/s (%.2fx), "
      "%.1f -> %.1f bytes/task-interval, load heap %.2f ms / mmap %.2f ms "
      "(%.0fx), resident %lld -> %lld bytes -> %s\n",
      full ? "full" : "short", scans / aos_seconds, scans / arena_seconds, speedup,
      aos_bytes_per_ti, arena_bytes_per_ti, heap_load_ms, mmap_load_ms, load_speedup,
      static_cast<long long>(heap_resident), static_cast<long long>(mmap_resident),
      path.c_str());
}

// ---------------------------------------------------------------------------
// BENCH_stream.json: tracked streaming-ingest thread-scaling matrix.
//
// Controlled by $CRF_STREAM_BENCH: "off" skips, "short" (default) streams a
// 64-machine half-week cell, "full" a 2k-machine week — the problem size at
// which shard fan-out amortizes (ROADMAP "make parallelism actually pay").
// One row lands per pool size in $CRF_BENCH_THREADS; the `threads: 1` row is
// the serial baseline every `parallel_speedup` is computed against. Before
// timing, the streamed per-machine metrics are gated bit-identical against
// the batch engine on the same cell, and each timed lane's full SimResult
// (including the shard-merged cell series) is gated bit-identical against
// the serial lane — a tracked events/s number for a stream that diverged
// would be measuring a different computation. The record lands in
// $CRF_BENCH_STREAM_FILE (default ./BENCH_stream.json) as
// {"schema":"crf-stream-bench-v2","entries":[...]}; reruns append.

void RecordStreamBench() {
  const std::string mode = GetEnvString("CRF_STREAM_BENCH", "short");
  if (mode == "off") {
    return;
  }
  const bool full = mode == "full";

  CellProfile profile = SimCellProfile('a');
  profile.num_machines = full ? 2048 : 64;
  GeneratorOptions gen_options;
  gen_options.num_intervals = full ? kIntervalsPerWeek : kIntervalsPerWeek / 2;
  CellTrace cell = GenerateCellTrace(profile, gen_options, Rng(12));
  cell.FilterToServingTasks();
  const PredictorSpec spec = ProductionMaxSpec();

  ReplayOptions options;
  options.latency_sample_period = 0;

  // Integrity gate 1: streamed per-machine metrics must equal the batch
  // engine's bit for bit (the replay.h contract).
  ThreadPool one_thread(1);
  SimOptions sim_options;
  sim_options.pool = &one_thread;
  const SimResult batch = SimulateCell(cell, spec, sim_options);
  ReplayOptions serial_options = options;
  serial_options.parallel = false;
  StreamReplayer check(cell, spec, serial_options);
  check.AdvanceToEnd();
  const SimResult streamed = check.Finish();
  for (int m = 0; m < cell.num_machines(); ++m) {
    const MachineMetrics& s = streamed.machines[m];
    const MachineMetrics& b = batch.machines[m];
    if (s.violations != b.violations || s.occupied_intervals != b.occupied_intervals ||
        s.mean_violation_severity != b.mean_violation_severity ||
        s.savings_ratio != b.savings_ratio || s.mean_prediction != b.mean_prediction ||
        s.mean_limit != b.mean_limit ||
        s.tail.max_violation_streak != b.tail.max_violation_streak ||
        s.tail.severity_p999 != b.tail.severity_p999) {
      std::fprintf(stderr, "stream bench: stream diverged from batch (machine %d)\n", m);
      return;
    }
  }
  const uint64_t events = check.Metrics().TotalEvents();
  const uint64_t ticks = check.Metrics().TotalTicks();

  // Times one pool size; returns seconds per replay, or a negative value if
  // the lane's result diverged from the serial lane (integrity gate 2: at a
  // fixed shard count every number, including the shard-merged cell series,
  // must be bit-identical at any pool size).
  const auto time_replay = [&](int threads) {
    ThreadPool pool(threads);
    ReplayOptions run_options = options;
    run_options.parallel = threads > 1;
    run_options.pool = &pool;
    {
      StreamReplayer warm(cell, spec, run_options);
      warm.AdvanceToEnd();
      const SimResult lane = warm.Finish();
      for (int m = 0; m < cell.num_machines(); ++m) {
        const MachineMetrics& s = streamed.machines[m];
        const MachineMetrics& l = lane.machines[m];
        if (l.violations != s.violations ||
            l.mean_violation_severity != s.mean_violation_severity ||
            l.savings_ratio != s.savings_ratio || l.mean_prediction != s.mean_prediction) {
          return -1.0;
        }
      }
      if (lane.cell_savings_series != streamed.cell_savings_series) {
        return -1.0;
      }
    }
    int reps = 0;
    const auto start = std::chrono::steady_clock::now();
    double seconds = 0.0;
    do {
      StreamReplayer replayer(cell, spec, run_options);
      replayer.AdvanceToEnd();
      benchmark::DoNotOptimize(replayer.next_tick());
      ++reps;
      seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (seconds < 0.5);
    return seconds / reps;
  };

  struct Lane {
    int threads = 1;
    double seconds = 0.0;
  };
  std::vector<Lane> lanes;
  for (const int threads : BenchThreadCounts()) {
    const double seconds = time_replay(threads);
    if (seconds < 0.0) {
      std::fprintf(stderr, "stream bench: threads=%d diverged from serial, not recording\n",
                   threads);
      return;
    }
    lanes.push_back({threads, seconds});
  }

  const std::string matrix = TodayUtc() + std::string("-") + (full ? "full" : "short");
  const double base_seconds = lanes[0].seconds;
  const std::string path = GetEnvString("CRF_BENCH_STREAM_FILE", "BENCH_stream.json");
  for (const Lane& lane : lanes) {
    const double speedup = base_seconds / lane.seconds;
    std::ostringstream entry;
    entry.precision(6);
    entry << "    {\n"
          << "      \"date\": \"" << TodayUtc() << "\",\n"
          << "      \"mode\": \"" << (full ? "full" : "short") << "\",\n"
          << "      \"matrix\": \"" << matrix << "\",\n"
          << "      \"threads\": " << lane.threads << ",\n"
          << "      \"parallel\": " << (lane.threads > 1 ? "true" : "false") << ",\n"
          << "      \"host_cores\": " << HostCores() << ",\n"
          << "      \"num_machines\": " << cell.num_machines() << ",\n"
          << "      \"num_intervals\": " << cell.num_intervals << ",\n"
          << "      \"num_tasks\": " << cell.num_tasks() << ",\n"
          << "      \"num_shards\": " << options.num_shards << ",\n"
          << "      \"events\": " << events << ",\n"
          << "      \"machine_ticks\": " << ticks << ",\n"
          << "      \"events_per_sec\": " << static_cast<double>(events) / lane.seconds
          << ",\n"
          << "      \"parallel_speedup\": " << speedup << "\n"
          << "    }";
    AppendTrackedBenchEntry(path, "crf-stream-bench-v2", entry.str());
    std::printf("stream bench (%s): threads=%d %.0f events/s (%.2fx) over %llu events -> %s\n",
                full ? "full" : "short", lane.threads,
                static_cast<double>(events) / lane.seconds, speedup,
                static_cast<unsigned long long>(events), path.c_str());
  }
}

// ---------------------------------------------------------------------------
// BENCH_serve.json: tracked network serve-tier throughput matrix.
//
// Controlled by $CRF_SERVE_BENCH: "off" skips, "short" (default) streams a
// 64-machine half-week cell over loopback, "full" a 512-machine week. One
// row lands per client-connection count in $CRF_SERVE_BENCH_CLIENTS
// (default "1,4,8"): a fresh server (push-mode StreamReplayer behind the
// CRFNET1 protocol) is stood up on an ephemeral loopback port and the load
// generator streams the whole trace from K connections. Every lane carries
// its own integrity gate — the loadgen's differential verify bit-compares
// the server's end state (per-machine prediction/limit-sum bits, roster
// hashes, cell sums) against an in-process replay — recorded per row as
// `bit_identical`; a lane that fails the gate is recorded as false and the
// check script rejects it. The record lands in $CRF_BENCH_SERVE_FILE
// (default ./BENCH_serve.json) as
// {"schema":"crf-serve-bench-v1","entries":[...]}; reruns append.

void RecordServeBench() {
  const std::string mode = GetEnvString("CRF_SERVE_BENCH", "short");
  if (mode == "off") {
    return;
  }
  const bool full = mode == "full";

  CellProfile profile = SimCellProfile('a');
  profile.num_machines = full ? 512 : 64;
  GeneratorOptions gen_options;
  gen_options.num_intervals = full ? kIntervalsPerWeek : kIntervalsPerWeek / 2;
  CellTrace cell = GenerateCellTrace(profile, gen_options, Rng(12));
  cell.FilterToServingTasks();
  const PredictorSpec spec = ProductionMaxSpec();

  // The server replays push-mode: parallelism comes from the client
  // connections driving disjoint shards, not from a replay pool. Latency
  // sampling is disabled on both sides (options must match bit-for-bit for
  // the differential verify).
  ReplayOptions replay_options;
  replay_options.parallel = false;
  replay_options.latency_sample_period = 0;

  std::vector<int> client_counts{1};
  {
    const std::string spec_text = GetEnvString("CRF_SERVE_BENCH_CLIENTS", "1,4,8");
    std::stringstream in(spec_text);
    std::string token;
    while (std::getline(in, token, ',')) {
      const int n = std::atoi(token.c_str());
      if (n >= 1) {
        client_counts.push_back(n);
      }
    }
    std::sort(client_counts.begin(), client_counts.end());
    client_counts.erase(std::unique(client_counts.begin(), client_counts.end()),
                        client_counts.end());
  }

  struct Lane {
    int clients = 1;
    LoadGenReport report;
  };
  std::vector<Lane> lanes;
  for (const int clients : client_counts) {
    StreamReplayer replayer(cell, spec, replay_options);
    OvercommitServer server(replayer, NetServerOptions{});
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "serve bench: cannot start server: %s\n", error.c_str());
      return;
    }
    LoadGenOptions options;
    options.port = server.port();
    options.client_threads = clients;
    options.verify_options = replay_options;
    Lane lane;
    lane.clients = clients;
    if (!RunLoadGen(cell, spec, options, &lane.report)) {
      std::fprintf(stderr, "serve bench: clients=%d failed: %s\n", clients,
                   lane.report.error.c_str());
      return;
    }
    server.Wait();
    lanes.push_back(std::move(lane));
  }

  const auto p99 = [](const std::vector<LoadGenOpLatency>& ops, const char* name) {
    for (const LoadGenOpLatency& op : ops) {
      if (op.op == name) {
        return op.p99_ns;
      }
    }
    return 0.0;
  };

  const std::string matrix = TodayUtc() + std::string("-") + (full ? "full" : "short");
  const std::string path = GetEnvString("CRF_BENCH_SERVE_FILE", "BENCH_serve.json");
  for (const Lane& lane : lanes) {
    const LoadGenReport& report = lane.report;
    std::ostringstream entry;
    entry.precision(6);
    entry << "    {\n"
          << "      \"date\": \"" << TodayUtc() << "\",\n"
          << "      \"mode\": \"" << (full ? "full" : "short") << "\",\n"
          << "      \"matrix\": \"" << matrix << "\",\n"
          << "      \"clients\": " << lane.clients << ",\n"
          << "      \"host_cores\": " << HostCores() << ",\n"
          << "      \"num_machines\": " << cell.num_machines() << ",\n"
          << "      \"num_intervals\": " << cell.num_intervals << ",\n"
          << "      \"num_shards\": " << replay_options.num_shards << ",\n"
          << "      \"events\": " << report.events_sent << ",\n"
          << "      \"events_per_sec\": " << report.events_per_sec << ",\n"
          << "      \"ingest_p99_ns\": " << p99(report.ops, "ingest-batch") << ",\n"
          << "      \"machine_query_p99_ns\": " << p99(report.ops, "machine-query") << ",\n"
          << "      \"admission_p99_ns\": " << p99(report.ops, "admission-check") << ",\n"
          << "      \"bit_identical\": " << (report.verified ? "true" : "false") << "\n"
          << "    }";
    AppendTrackedBenchEntry(path, "crf-serve-bench-v1", entry.str());
    std::printf("serve bench (%s): clients=%d %.0f events/s over %llu events,"
                " bit_identical=%s -> %s\n",
                full ? "full" : "short", lane.clients, report.events_per_sec,
                static_cast<unsigned long long>(report.events_sent),
                report.verified ? "true" : "false", path.c_str());
  }
}

}  // namespace
}  // namespace crf

// BENCHMARK_MAIN, plus JSON recording under $REPRO_OUT unless the caller
// already chose an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).starts_with("--benchmark_out")) {
      has_out = true;
    }
  }
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    const std::string out_dir = crf::BenchOutputDir();
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    out_flag = "--benchmark_out=" + out_dir + "/perf_microbench.json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  crf::RecordClusterBench();
  crf::RecordSweepBench();
  crf::RecordTraceBench();
  crf::RecordStreamBench();
  crf::RecordServeBench();
  return 0;
}
