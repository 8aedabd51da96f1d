// Differential test: the fused, allocation-free simulation engine against a
// deliberately naive reference simulator (per-interval resident-set rescan,
// per-interval limit re-summation, brute-force O(T*H*N) oracle straight from
// the Section 3.1 definition). Both must produce the same MachineMetrics and
// SimResult — exactly for the integer counters, within 1e-12 for the
// floating-point aggregates — across seeded random traces covering staggered
// arrivals/departures, empty machines, single-interval tasks, every oracle
// kind, and the oracle cache.

#include "crf/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

constexpr double kTol = 1e-12;

// ----- Naive reference engine (test-only, no sharing with the fused path
// beyond the predictor implementations themselves). -----

// Violation predicate copied from the engine contract (simulator.cc keeps
// its own private copy; the tolerance is part of the documented metric).
bool RefIsViolation(double prediction, double oracle) {
  return prediction < oracle * (1.0 - 1e-9) - 1e-12;
}

// Brute-force arrival-filtered peak oracle, O(T * H * N).
std::vector<double> BruteForcePeakOracle(const CellTrace& cell, int machine,
                                         Interval horizon) {
  std::vector<double> oracle(cell.num_intervals, 0.0);
  for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
    double best = 0.0;
    const Interval end = std::min<Interval>(cell.num_intervals, tau + horizon);
    for (Interval t = tau; t < end; ++t) {
      double total = 0.0;
      for (const int32_t index : cell.machine_tasks(machine)) {
        const TaskView task = cell.task(index);
        if (task.start() <= tau) {
          total += task.UsageAt(t);
        }
      }
      best = std::max(best, total);
    }
    oracle[tau] = best;
  }
  return oracle;
}

// Brute-force unfiltered total-usage oracle, O(T * H * N).
std::vector<double> BruteForceTotalUsageOracle(const CellTrace& cell, int machine,
                                               Interval horizon) {
  std::vector<double> oracle(cell.num_intervals, 0.0);
  for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
    double best = 0.0;
    const Interval end = std::min<Interval>(cell.num_intervals, tau + horizon);
    for (Interval t = tau; t < end; ++t) {
      double total = 0.0;
      for (const int32_t index : cell.machine_tasks(machine)) {
        total += cell.task(index).UsageAt(t);
      }
      best = std::max(best, total);
    }
    oracle[tau] = best;
  }
  return oracle;
}

// Per-interval rescan simulator: re-derives the resident set and re-sums
// limits from scratch every interval. Feeds the predictor tasks in arrival
// order (the engine's documented sample order).
MachineMetrics NaiveSimulateMachine(const CellTrace& cell, int machine_index,
                                    const PredictorSpec& spec, const SimOptions& options,
                                    std::vector<double>* cell_limit,
                                    std::vector<double>* cell_prediction) {
  const Interval num_intervals = cell.num_intervals;
  const std::vector<double> oracle =
      options.use_total_usage_oracle
          ? BruteForceTotalUsageOracle(cell, machine_index, options.horizon)
          : BruteForcePeakOracle(cell, machine_index, options.horizon);

  auto predictor = CreatePredictor(spec);

  const std::span<const int32_t> machine_tasks = cell.machine_tasks(machine_index);
  std::vector<int32_t> order(machine_tasks.begin(), machine_tasks.end());
  const std::span<const Interval> starts = cell.task_starts();
  std::sort(order.begin(), order.end(),
            [starts](int32_t a, int32_t b) { return starts[a] < starts[b]; });

  MachineMetrics metrics;
  metrics.machine_index = machine_index;
  metrics.intervals = num_intervals;

  double severity_sum = 0.0;
  double savings_sum = 0.0;
  double prediction_sum = 0.0;
  double limit_sum_total = 0.0;

  for (Interval tau = 0; tau < num_intervals; ++tau) {
    // Full rescan: a task is resident over [start, departure()) — the
    // sealed TaskView owns the zero-length-task rule (resident exactly one
    // interval).
    std::vector<TaskSample> samples;
    double limit_sum = 0.0;
    for (const int32_t index : order) {
      const TaskView task = cell.task(index);
      if (task.ResidentAt(tau)) {
        samples.push_back({task.task_id(), task.UsageAt(tau), task.limit()});
        limit_sum += task.limit();
      }
    }

    predictor->Observe(tau, samples);
    const double prediction = predictor->PredictPeak();
    const double oracle_value = oracle[tau];

    if (RefIsViolation(prediction, oracle_value)) {
      ++metrics.violations;
      severity_sum += (oracle_value - prediction) / oracle_value;
    }
    if (!samples.empty()) {
      ++metrics.occupied_intervals;
      savings_sum += (limit_sum - prediction) / limit_sum;
    }
    prediction_sum += prediction;
    limit_sum_total += limit_sum;
    if (cell_limit != nullptr) {
      (*cell_limit)[tau] += limit_sum;
    }
    if (cell_prediction != nullptr) {
      (*cell_prediction)[tau] += prediction;
    }
  }

  if (num_intervals > 0) {
    metrics.mean_violation_severity = severity_sum / num_intervals;
    metrics.mean_prediction = prediction_sum / num_intervals;
    metrics.mean_limit = limit_sum_total / num_intervals;
  }
  if (metrics.occupied_intervals > 0) {
    metrics.savings_ratio = savings_sum / static_cast<double>(metrics.occupied_intervals);
  }
  return metrics;
}

SimResult NaiveSimulateCell(const CellTrace& cell, const PredictorSpec& spec,
                            const SimOptions& options) {
  SimResult result;
  result.cell_name = cell.name;
  result.predictor_name = spec.Name();
  result.machines.resize(cell.num_machines());

  std::vector<double> cell_limit(cell.num_intervals, 0.0);
  std::vector<double> cell_prediction(cell.num_intervals, 0.0);
  for (int m = 0; m < cell.num_machines(); ++m) {
    result.machines[m] =
        NaiveSimulateMachine(cell, m, spec, options, &cell_limit, &cell_prediction);
  }
  for (Interval t = 0; t < cell.num_intervals; ++t) {
    if (cell_limit[t] > 0.0) {
      result.cell_savings_series.push_back((cell_limit[t] - cell_prediction[t]) /
                                           cell_limit[t]);
    }
  }
  return result;
}

// ----- Random trace construction. -----

// Small cells with adversarial shapes: staggered arrivals/departures,
// machines left entirely empty, single-interval tasks, tasks alive past the
// end of the simulated period, and zero-usage single-sample tasks.
CellTrace RandomCell(uint64_t seed) {
  Rng rng(seed);
  const Interval num_intervals = 30 + static_cast<Interval>(rng.UniformInt(31));  // 30..60
  const int num_machines = 1 + static_cast<int>(rng.UniformInt(4));               // 1..4
  CellTraceBuilder builder("diff_cell", num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    if (rng.UniformDouble() < 0.15) {
      continue;  // Empty machine.
    }
    const int num_tasks = 1 + static_cast<int>(rng.UniformInt(14));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.05 + rng.UniformDouble() * 0.95;
      Interval len;
      const double shape = rng.UniformDouble();
      if (shape < 0.2) {
        len = 1;  // Single-interval task.
      } else if (shape < 0.3) {
        // Runs past the end of the simulated period.
        len = num_intervals - start + 1 + static_cast<Interval>(rng.UniformInt(5));
      } else {
        len = 1 + static_cast<Interval>(rng.UniformInt(num_intervals - start));
      }
      const int32_t index =
          builder.AddTask(id, id, m, start, limit, SchedulingClass::kLatencySensitive);
      builder.ReserveUsage(index, static_cast<size_t>(len));
      for (Interval k = 0; k < len; ++k) {
        builder.AppendUsage(index, static_cast<float>(limit * rng.UniformDouble()));
      }
    }
  }
  return builder.Seal();
}

PredictorConfig FastConfig() {
  PredictorConfig config;
  config.min_num_samples = 3;
  config.max_num_samples = 8;
  return config;
}

// The predictor roster cycled across traces: every family, with a short
// warm-up/history so the small traces exercise warmed and warming regimes.
PredictorSpec SpecForCase(int index) {
  switch (index % 5) {
    case 0:
      return LimitSumSpec();
    case 1:
      return BorgDefaultSpec(0.9);
    case 2:
      return NSigmaSpec(3.0, FastConfig().min_num_samples, FastConfig().max_num_samples);
    case 3:
      return RcLikeSpec(95.0, FastConfig().min_num_samples, FastConfig().max_num_samples);
    default:
      return MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
  }
}

void ExpectMetricsMatch(const MachineMetrics& fused, const MachineMetrics& naive,
                        uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                    << " machine=" << naive.machine_index);
  EXPECT_EQ(fused.machine_index, naive.machine_index);
  EXPECT_EQ(fused.intervals, naive.intervals);
  EXPECT_EQ(fused.occupied_intervals, naive.occupied_intervals);
  EXPECT_EQ(fused.violations, naive.violations);
  EXPECT_NEAR(fused.mean_violation_severity, naive.mean_violation_severity, kTol);
  EXPECT_NEAR(fused.savings_ratio, naive.savings_ratio, kTol);
  EXPECT_NEAR(fused.mean_prediction, naive.mean_prediction, kTol);
  EXPECT_NEAR(fused.mean_limit, naive.mean_limit, kTol);
}

void ExpectResultsMatch(const SimResult& fused, const SimResult& naive, uint64_t seed) {
  ASSERT_EQ(fused.machines.size(), naive.machines.size());
  for (size_t m = 0; m < fused.machines.size(); ++m) {
    ExpectMetricsMatch(fused.machines[m], naive.machines[m], seed);
  }
  ASSERT_EQ(fused.cell_savings_series.size(), naive.cell_savings_series.size())
      << "seed=" << seed;
  for (size_t t = 0; t < fused.cell_savings_series.size(); ++t) {
    EXPECT_NEAR(fused.cell_savings_series[t], naive.cell_savings_series[t], kTol)
        << "seed=" << seed << " t=" << t;
  }
  EXPECT_EQ(fused.cell_name, naive.cell_name);
  EXPECT_EQ(fused.predictor_name, naive.predictor_name);
}

class SimulatorDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorDifferentialTest, FusedMatchesNaiveReference) {
  const int case_index = GetParam();
  const uint64_t seed = 1000 + static_cast<uint64_t>(case_index);
  const CellTrace cell = RandomCell(seed);
  const PredictorSpec spec = SpecForCase(case_index);

  SimOptions options;
  options.use_total_usage_oracle = case_index % 4 == 3;
  switch (case_index % 3) {
    case 0:
      options.horizon = 1;
      break;
    case 1:
      options.horizon = 6;
      break;
    default:
      options.horizon = cell.num_intervals + 4;  // Covers the whole future.
      break;
  }

  // Serial fused engine.
  ThreadPool one_thread(1);
  SimOptions serial = options;
  serial.pool = &one_thread;
  ExpectResultsMatch(SimulateCell(cell, spec, serial), NaiveSimulateCell(cell, spec, serial),
                     seed);

  // Parallel fused engine with a shared oracle cache, run twice so the
  // second pass exercises the cache-hit path end to end.
  OracleCache cache;
  SimOptions parallel_cached = options;
  parallel_cached.oracle_cache = &cache;
  const SimResult naive = NaiveSimulateCell(cell, spec, options);
  ExpectResultsMatch(SimulateCell(cell, spec, parallel_cached), naive, seed);
  ExpectResultsMatch(SimulateCell(cell, spec, parallel_cached), naive, seed);
  EXPECT_GT(cache.hits(), 0) << "second pass should hit the cache";
}

INSTANTIATE_TEST_SUITE_P(FiftyRandomTraces, SimulatorDifferentialTest,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace crf
