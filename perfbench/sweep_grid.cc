// sweep-grid: the paper's evaluation path.
//
// SimulateCellMulti evaluates the 27-spec Fig 8/9 grid over a week of a
// 512-machine cell with a fresh (cold) OracleCache, on the default pool.
// Predictor and oracle kernels do nearly all the work; net and placement do
// none. Sampled (machine, spec) pairs are re-evaluated one at a time with
// SimulateMachine, the single-spec reference, and must match bit for bit.

#include <bit>
#include <cstdio>
#include <cstring>

#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMachines = 512;
constexpr int kMachinesPerSpec = 8;
constexpr uint64_t kTraceTag = 0x73776565;
constexpr uint64_t kSampleTag = 0x73616d70;

// The Fig 8/9 grid of perf_microbench's SweepGridSpecs: the N-sigma and
// RC-like multiplier/percentile, warm-up and history sweeps, the
// chance-constrained target sweep and the Flex percentile sweep.
struct Family {
  const char* layer;
  std::vector<crf::PredictorSpec> specs;
};

std::vector<Family> GridFamilies() {
  using crf::kIntervalsPerHour;
  std::vector<Family> families = {{"sim.nsigma_s", {}},
                                  {"sim.rclike_s", {}},
                                  {"sim.chance_s", {}},
                                  {"sim.flex_s", {}}};
  for (const double n : {2.0, 3.0, 5.0, 10.0}) {
    families[0].specs.push_back(crf::NSigmaSpec(n));
  }
  for (const int hours : {1, 2, 3}) {
    families[0].specs.push_back(crf::NSigmaSpec(5.0, hours * kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    families[0].specs.push_back(
        crf::NSigmaSpec(5.0, 2 * kIntervalsPerHour, hours * kIntervalsPerHour));
  }
  for (const double p : {80.0, 90.0, 95.0, 99.0}) {
    families[1].specs.push_back(crf::RcLikeSpec(p));
  }
  for (const int hours : {1, 2, 3}) {
    families[1].specs.push_back(crf::RcLikeSpec(95.0, hours * kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    families[1].specs.push_back(
        crf::RcLikeSpec(95.0, 2 * kIntervalsPerHour, hours * kIntervalsPerHour));
  }
  for (const double target : {0.005, 0.01, 0.05, 0.10}) {
    families[2].specs.push_back(crf::ChanceSpec(target));
  }
  for (const double p : {90.0, 95.0, 99.0}) {
    families[3].specs.push_back(crf::FlexSpec(p));
  }
  return families;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameMachine(const crf::MachineMetrics& a, const crf::MachineMetrics& b) {
  return a.machine_index == b.machine_index && a.intervals == b.intervals &&
         a.occupied_intervals == b.occupied_intervals && a.violations == b.violations &&
         SameBits(a.mean_violation_severity, b.mean_violation_severity) &&
         SameBits(a.savings_ratio, b.savings_ratio) &&
         SameBits(a.mean_prediction, b.mean_prediction) &&
         SameBits(a.mean_limit, b.mean_limit) &&
         SameBits(a.tail.severity_p999, b.tail.severity_p999) &&
         a.tail.max_violation_streak == b.tail.max_violation_streak &&
         SameBits(a.tail.savings_at_risk, b.tail.savings_at_risk);
}

double GridSeconds(const crf::CellTrace& cell, std::span<const crf::PredictorSpec> specs,
                   crf::OracleCache& cache, std::vector<crf::SimResult>* results = nullptr) {
  crf::SimOptions options;
  options.oracle_cache = &cache;
  const auto start = Clock::now();
  std::vector<crf::SimResult> out = crf::SimulateCellMulti(cell, specs, options);
  const double seconds = SecondsSince(start);
  if (results != nullptr) {
    *results = std::move(out);
  }
  return seconds;
}

}  // namespace

void RunSweepGrid(const RunConfig& config, bool traced, Report& report) {
  crf::ThreadPool pool(4);
  const std::vector<Family> families = GridFamilies();
  std::vector<crf::PredictorSpec> specs;
  for (const Family& family : families) {
    specs.insert(specs.end(), family.specs.begin(), family.specs.end());
  }
  crf::CellProfile profile = crf::SimCellProfile('a');
  profile.num_machines = kMachines;
  crf::GeneratorOptions generator;
  generator.num_intervals = crf::kIntervalsPerWeek;
  generator.pool = &pool;

  std::vector<double> generate_s;
  crf::CellTrace cell;
  for (int i = 0; i < config.setup_repeats; ++i) {
    const auto start = Clock::now();
    cell = crf::GenerateCellTrace(profile, generator, crf::Rng(config.seed).Fork(kTraceTag));
    cell.FilterToServingTasks();
    generate_s.push_back(SecondsSince(start));
  }
  const int machines = cell.num_machines();
  const double grid_work = static_cast<double>(machines) * static_cast<double>(specs.size());

  // The reference pairs: kMachinesPerSpec machines for every spec, so every
  // run times the same mix of cheap and costly specs.
  std::vector<std::pair<int, int>> pairs;
  crf::Rng sampler = crf::Rng(config.seed).Fork(kSampleTag);
  for (int s = 0; s < static_cast<int>(specs.size()); ++s) {
    for (int i = 0; i < kMachinesPerSpec; ++i) {
      pairs.emplace_back(static_cast<int>(sampler.UniformInt(machines)), s);
    }
  }

  std::vector<double> grid_rate;
  std::vector<crf::SimResult> results;
  RepeatFor(config.seconds, config.min_passes, [&] {
    crf::OracleCache cold;
    grid_rate.push_back(grid_work / GridSeconds(cell, specs, cold, &results));
    std::printf("pass %zu: %.6g machine-specs/s\n", grid_rate.size() - 1, grid_rate.back());
    return true;
  });

  // The single-spec reference on the sampled pairs, each with its own
  // oracle, checked once per run against the last grid pass.
  int mismatched = 0;
  const auto reference_start = Clock::now();
  for (const auto& [m, s] : pairs) {
    const crf::MachineMetrics single =
        crf::SimulateMachine(cell, m, specs[s], crf::SimOptions{}, nullptr, nullptr);
    mismatched += SameMachine(single, results[s].machines[m]) ? 0 : 1;
  }
  const double reference_s = SecondsSince(reference_start);
  report.Check(mismatched == 0, std::to_string(pairs.size()) +
                                    " sampled (machine, spec) pairs equal SimulateMachine (" +
                                    std::to_string(mismatched) + " differ)");

  report.Add("setup_s", Median(generate_s), "s", "trace generation (median)");
  report.Add("throughput_per_s", Median(grid_rate), "1/s",
             "grid machine x spec evaluations/s, 27 specs, cold oracle cache");
  if (!traced) {
    return;
  }

  report.Add("trace.generate_s", Median(generate_s), "s",
             "GenerateCellTrace + FilterToServingTasks, 512 machines x 1 week");
  report.Add("sim.simulate_machine_s", reference_s, "s",
             std::to_string(pairs.size()) +
                 " sampled (machine, spec) pairs through SimulateMachine, one at a time");
  crf::OracleCache warm;
  const auto oracle_start = Clock::now();
  pool.ParallelFor(machines, [&](int m) {
    warm.GetOrCompute(cell, m, crf::kIntervalsPerDay, crf::OracleKind::kPeak);
  });
  report.Add("core.oracle_s", SecondsSince(oracle_start), "s",
             "OracleCache::GetOrCompute over every machine on a 4-thread pool");
  report.Add("sim.grid_warm_s", GridSeconds(cell, specs, warm), "s",
             "the 27-spec grid on the warm oracle cache");
  for (const Family& family : families) {
    report.Add(family.layer, GridSeconds(cell, family.specs, warm), "s",
               std::to_string(family.specs.size()) + "-spec family sub-grid, warm cache");
  }
  report.Add("core.oracle_cache_hits", static_cast<double>(warm.hits()), "count",
             "warm cache, after the warm grid and the four sub-grids");
  report.Add("core.oracle_cache_misses", static_cast<double>(warm.misses()), "count",
             "warm cache: one per machine");
  int64_t violations = 0;
  for (const crf::SimResult& result : results) {
    for (const crf::MachineMetrics& machine : result.machines) {
      violations += machine.violations;
    }
  }
  report.Add("risk.violations", static_cast<double>(violations), "count",
             "violations over every machine and spec of the grid (a checksum)");
}

}  // namespace perfbench
