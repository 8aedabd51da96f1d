// The predictor engine against its independent reference.
//
//  * IndexableWindow (the sorted-array window under the sweep bank's
//    percentile groups) is pinned property-style to a naive sorted-vector window
//    under random pushes, across capacities from 1 to well past the switch
//    from counting to binary search.
//  * SweepPlan's node/group deduplication is checked structurally.
//  * SimulateCellMulti over a mixed grid — borg phis, RC-like percentiles,
//    N-sigma Ns, autopilot, chance, flex, nested max specs, varied
//    warm-up/history including min == max, and a duplicated spec — and the
//    one-spec SimulateCell must both match a per-spec engine driving the
//    reference predictors of tests/reference/ bit for bit, machine by
//    machine and in the cell savings series. Both a dense low-churn cell
//    and a churn-heavy cell, on the serial and the
//    parallel-with-oracle-cache paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "crf/core/indexable_window.h"
#include "crf/core/machine_roster.h"
#include "crf/core/predictor_factory.h"
#include "crf/core/sweep_bank.h"
#include "crf/sim/simulator.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/byte_io.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"
#include "reference/predictors.h"

namespace crf {
namespace {

// ----- IndexableWindow vs a naive sorted-vector reference. -----

// A naive window, kept as the behavioural reference: bounded deque in
// arrival order, full sort per percentile query.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(int capacity) : capacity_(capacity) {}

  void Push(float sample) {
    if (static_cast<int>(samples_.size()) == capacity_) {
      samples_.pop_front();
    }
    samples_.push_back(sample);
  }

  int size() const { return static_cast<int>(samples_.size()); }

  double Percentile(double p) const {
    std::vector<float> sorted(samples_.begin(), samples_.end());
    std::sort(sorted.begin(), sorted.end());
    const int count = static_cast<int>(sorted.size());
    if (count == 1) {
      return sorted[0];
    }
    const double rank = p / 100.0 * static_cast<double>(count - 1);
    const int lo = static_cast<int>(rank);
    const int hi = std::min(lo + 1, count - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }

  double Mean() const {
    double sum = 0.0;
    for (const float v : samples_) {
      sum += v;
    }
    return sum / static_cast<double>(samples_.size());
  }

  float Latest() const { return samples_.back(); }

 private:
  int capacity_;
  std::deque<float> samples_;
};

TEST(IndexableWindowTest, MatchesSortedVectorReference) {
  const int capacities[] = {1, 2, 3, 7, 63, 64, 65, 200, 600};
  const double percentiles[] = {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0};
  for (const int capacity : capacities) {
    SCOPED_TRACE(::testing::Message() << "capacity=" << capacity);
    Rng rng(7000 + static_cast<uint64_t>(capacity));
    IndexableWindow window(capacity);
    ReferenceWindow reference(capacity);
    const int pushes = std::max(300, 4 * capacity);  // Well past one wrap.
    for (int i = 0; i < pushes; ++i) {
      // Quantize some samples so runs of duplicates are common.
      const float sample = rng.UniformDouble() < 0.5
                               ? static_cast<float>(rng.UniformInt(16)) * 0.25f
                               : static_cast<float>(rng.UniformDouble());
      window.Push(sample);
      reference.Push(sample);

      ASSERT_EQ(window.size(), reference.size());
      EXPECT_EQ(window.Latest(), reference.Latest());
      // Same multiset, same interpolation arithmetic: exactly equal.
      for (const double p : percentiles) {
        ASSERT_DOUBLE_EQ(window.Percentile(p), reference.Percentile(p))
            << "push=" << i << " p=" << p;
      }
      const double random_p = rng.UniformDouble() * 100.0;
      ASSERT_DOUBLE_EQ(window.Percentile(random_p), reference.Percentile(random_p))
          << "push=" << i << " p=" << random_p;
      // The running sum accumulates in a different order than the reference.
      const double mean = reference.Mean();
      EXPECT_NEAR(window.Mean(), mean, 1e-9 * std::max(1.0, std::abs(mean)));
    }
  }
}

TEST(IndexableWindowTest, ClearKeepsCapacityAndResets) {
  IndexableWindow window(4);
  for (int i = 0; i < 6; ++i) {
    window.Push(static_cast<float>(i));
  }
  window.Clear();
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.capacity(), 4);
  EXPECT_EQ(window.Mean(), 0.0);
  window.Push(2.5f);
  EXPECT_EQ(window.size(), 1);
  EXPECT_DOUBLE_EQ(window.Percentile(50.0), 2.5);
}

TEST(IndexableWindowDeathTest, RejectsNonFiniteSamples) {
  IndexableWindow window(4);
  EXPECT_DEATH(window.Push(std::nanf("")), "non-finite");
  EXPECT_DEATH(window.Push(std::numeric_limits<float>::infinity()), "non-finite");
}

// ----- The sweep grid shared by the plan and differential tests. -----

std::vector<PredictorSpec> MixedGrid() {
  return {
      LimitSumSpec(),
      BorgDefaultSpec(0.6),
      BorgDefaultSpec(0.9),
      RcLikeSpec(50.0, 3, 8),
      RcLikeSpec(90.0, 3, 8),
      RcLikeSpec(99.0, 3, 8),
      RcLikeSpec(95.0, 5, 5),  // min == max warm-up edge
      RcLikeSpec(99.0, 1, 12),
      NSigmaSpec(1.0, 3, 8),
      NSigmaSpec(3.0, 3, 8),
      NSigmaSpec(5.0, 3, 8),
      NSigmaSpec(2.0, 5, 5),  // min == max warm-up edge
      AutopilotSpec(98.0, 1.10, 3, 8),
      // Components structurally identical to standalone grid points above.
      MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)}),
      // Nested max.
      MaxSpec({BorgDefaultSpec(0.9), MaxSpec({NSigmaSpec(3.0, 3, 8)})}),
      RcLikeSpec(90.0, 3, 8),  // duplicate of an earlier spec
      // Chance-constrained points: two targets over the same (warm-up,
      // history) quantile window, plus a distinct window pair.
      ChanceSpec(0.01, 3, 8),
      ChanceSpec(0.10, 3, 8),
      ChanceSpec(0.05, 5, 5),  // min == max warm-up edge
      // Flex points: two (percentile, margin) pairs over one ratio window,
      // one over a distinct history length, and a max over new families.
      FlexSpec(95.0, 1.2, 3, 8),
      FlexSpec(50.0, 1.0, 3, 8),
      FlexSpec(90.0, 1.5, 1, 12),
      MaxSpec({ChanceSpec(0.01, 3, 8), FlexSpec(95.0, 1.2, 3, 8)}),
  };
}

TEST(SweepPlanTest, DeduplicatesNodesAndGroups) {
  const std::vector<PredictorSpec> specs = MixedGrid();
  const SweepPlan plan(specs);

  ASSERT_EQ(plan.num_specs(), static_cast<int>(specs.size()));
  // 23 specs -> 23 distinct nodes: the duplicate spec folds away, the outer
  // max specs add themselves plus one inner max node, the chance/flex max's
  // leaves alias the standalone grid points, and every other leaf is unique.
  EXPECT_EQ(plan.num_nodes(), 23);
  // History lengths {8, 5, 12} -> one per-task window group each.
  EXPECT_EQ(static_cast<int>(plan.window_groups().size()), 3);
  // (warm-up, history) pairs {(3,8), (5,5)} -> one aggregate group each.
  EXPECT_EQ(static_cast<int>(plan.agg_groups().size()), 2);
  // Chance (warm-up, history) pairs {(3,8), (5,5)} -> one quantile window
  // group each; both targets over (3,8) share one group.
  EXPECT_EQ(static_cast<int>(plan.quant_groups().size()), 2);
  // Flex history lengths {8, 12} -> one ratio window group each.
  EXPECT_EQ(static_cast<int>(plan.ratio_groups().size()), 2);

  // The duplicated spec evaluates through the same node.
  EXPECT_EQ(plan.spec_node(4), plan.spec_node(15));
  // Max components alias the standalone nodes.
  const SweepPlan::Node& sim_max = plan.nodes()[plan.spec_node(13)];
  ASSERT_EQ(sim_max.components.size(), 2u);
  EXPECT_EQ(sim_max.components[0], plan.spec_node(10));  // n-sigma(5, 3, 8)
  EXPECT_EQ(sim_max.components[1], plan.spec_node(5));   // rc-like(99, 3, 8)
  // The chance/flex max's leaves alias the standalone chance/flex nodes.
  const SweepPlan::Node& new_max = plan.nodes()[plan.spec_node(22)];
  ASSERT_EQ(new_max.components.size(), 2u);
  EXPECT_EQ(new_max.components[0], plan.spec_node(16));  // chance(0.01, 3, 8)
  EXPECT_EQ(new_max.components[1], plan.spec_node(19));  // flex(95, 1.2, 3, 8)
  // Both chance targets over (3, 8) read the same quantile window group.
  EXPECT_EQ(plan.nodes()[plan.spec_node(16)].quant_group,
            plan.nodes()[plan.spec_node(17)].quant_group);
  // Both flex points over history 8 read the same ratio window group.
  EXPECT_EQ(plan.nodes()[plan.spec_node(19)].ratio_group,
            plan.nodes()[plan.spec_node(20)].ratio_group);

  // Per-task state is needed by the window, aggregate and quantile groups
  // only; a plan of borg-default, limit-sum and flex keeps no roster.
  EXPECT_TRUE(plan.tracks_tasks());
  const std::vector<PredictorSpec> stateless = {
      BorgDefaultSpec(0.9), LimitSumSpec(), FlexSpec(95.0, 1.2, 3, 8),
      MaxSpec({BorgDefaultSpec(0.6), FlexSpec(90.0, 1.5, 1, 12)})};
  EXPECT_FALSE(SweepPlan(stateless).tracks_tasks());
  for (const PredictorSpec& spec : {RcLikeSpec(), NSigmaSpec(), AutopilotSpec(), ChanceSpec(),
                                    MaxSpec({BorgDefaultSpec(), ChanceSpec()})}) {
    EXPECT_TRUE(SweepPlan(std::span(&spec, 1)).tracks_tasks()) << spec.Name();
  }
}

// ----- The bank engines vs the reference predictors. -----

// Seeded random cell. Dense mode: long-lived tasks, little churn (deep
// windows, warmed steady state). Churn mode: short tasks arriving throughout
// (constant roster rebuilds, tasks that never warm up).
CellTrace MakeCell(uint64_t seed, bool churn) {
  Rng rng(seed);
  const Interval num_intervals = churn ? 60 : 80;
  const int num_machines = 4;
  CellTraceBuilder builder(churn ? "sweep_churn" : "sweep_dense", num_intervals,
                           num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    if (m == num_machines - 1 && !churn) {
      continue;  // One entirely empty machine in the dense cell.
    }
    const int num_tasks = churn ? 24 : 10;
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const double limit = 0.05 + rng.UniformDouble() * 0.95;
      Interval start;
      Interval len;
      if (churn) {
        start = static_cast<Interval>(rng.UniformInt(num_intervals));
        len = 1 + static_cast<Interval>(rng.UniformInt(6));  // 1..6, incl. single-interval
      } else {
        start = static_cast<Interval>(rng.UniformInt(8));
        // Most of the period; some run past the end of the trace.
        len = num_intervals - start - static_cast<Interval>(rng.UniformInt(10)) + 5;
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

// The reference engine: each machine's resident samples from the shared
// trace walk, fed to a fresh reference predictor and scored by the shared
// risk accumulator. Machines are summed into the cell series in index order,
// which is the simulator's block reduction for cells of at most 64 machines
// (one machine per block).
SimResult ReferenceSimulateCell(const CellTrace& cell, const PredictorSpec& spec) {
  SimResult result;
  result.cell_name = cell.name;
  result.predictor_name = spec.Name();
  std::vector<double> cell_limit(cell.num_intervals, 0.0);
  std::vector<double> cell_prediction(cell.num_intervals, 0.0);
  const MachineTaskColumns cols(cell);
  for (int m = 0; m < cell.num_machines(); ++m) {
    const std::unique_ptr<PeakPredictor> predictor = reference::CreateReferencePredictor(spec);
    const std::vector<double> oracle = ComputePeakOracle(cell, m, kIntervalsPerDay);
    MachineRoster roster;
    roster.StartTraceWalk(cols, cell.machine_tasks(m));
    RiskAccumulator risk;
    for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
      roster.AdvanceTrace(cols, tau);
      predictor->Observe(tau, roster.samples());
      const double prediction = predictor->PredictPeak();
      risk.Record(prediction, oracle[tau], roster.limit_sum(), !roster.empty());
      cell_limit[tau] += roster.limit_sum();
      cell_prediction[tau] += prediction;
    }
    FinalizeMachineMetrics(risk, m, cell.num_intervals, result.machines.emplace_back());
  }
  result.cell_savings_series = CellSavingsSeries(cell_limit, cell_prediction);
  return result;
}

void ExpectSameBits(double actual, double expected, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(actual), std::bit_cast<uint64_t>(expected))
      << what << ": " << actual << " vs " << expected;
}

void ExpectResultMatchesReference(const SimResult& bank, const SimResult& reference) {
  EXPECT_EQ(bank.cell_name, reference.cell_name);
  EXPECT_EQ(bank.predictor_name, reference.predictor_name);
  ASSERT_EQ(bank.machines.size(), reference.machines.size());
  for (size_t m = 0; m < bank.machines.size(); ++m) {
    SCOPED_TRACE(::testing::Message() << "machine=" << m);
    const MachineMetrics& a = bank.machines[m];
    const MachineMetrics& b = reference.machines[m];
    EXPECT_EQ(a.machine_index, b.machine_index);
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(a.occupied_intervals, b.occupied_intervals);
    EXPECT_EQ(a.violations, b.violations);
    ExpectSameBits(a.mean_violation_severity, b.mean_violation_severity, "severity");
    ExpectSameBits(a.savings_ratio, b.savings_ratio, "savings");
    ExpectSameBits(a.mean_prediction, b.mean_prediction, "mean_prediction");
    ExpectSameBits(a.mean_limit, b.mean_limit, "mean_limit");
    // Tail metrics (crf/risk).
    EXPECT_EQ(a.tail.max_violation_streak, b.tail.max_violation_streak);
    ExpectSameBits(a.tail.severity_p99, b.tail.severity_p99, "severity_p99");
    ExpectSameBits(a.tail.severity_p999, b.tail.severity_p999, "severity_p999");
    ExpectSameBits(a.tail.streak_p99, b.tail.streak_p99, "streak_p99");
    ExpectSameBits(a.tail.violation_time_fraction, b.tail.violation_time_fraction,
                   "violation_time_fraction");
    ExpectSameBits(a.tail.savings_at_risk, b.tail.savings_at_risk, "savings_at_risk");
  }
  ASSERT_EQ(bank.cell_savings_series.size(), reference.cell_savings_series.size());
  for (size_t t = 0; t < bank.cell_savings_series.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "t=" << t);
    ExpectSameBits(bank.cell_savings_series[t], reference.cell_savings_series[t], "cell");
  }
}

void RunDifferential(const CellTrace& cell) {
  const std::vector<PredictorSpec> specs = MixedGrid();
  std::vector<SimResult> reference;
  for (const PredictorSpec& spec : specs) {
    reference.push_back(ReferenceSimulateCell(cell, spec));
  }

  // Serial: the grid in one pass, and each spec on its own.
  ThreadPool one_thread(1);
  SimOptions serial;
  serial.pool = &one_thread;
  const std::vector<SimResult> multi_serial = SimulateCellMulti(cell, specs, serial);
  ASSERT_EQ(multi_serial.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "spec=" << s << " (" << specs[s].Name() << ")");
    ExpectResultMatchesReference(multi_serial[s], reference[s]);
    ExpectResultMatchesReference(SimulateCell(cell, specs[s], serial), reference[s]);
  }

  // Parallel with a shared oracle cache, run twice so the second multi pass
  // exercises the cache-hit and bank-reuse paths end to end.
  OracleCache cache;
  SimOptions parallel;
  parallel.oracle_cache = &cache;
  const std::vector<SimResult> multi_parallel = SimulateCellMulti(cell, specs, parallel);
  const std::vector<SimResult> multi_again = SimulateCellMulti(cell, specs, parallel);
  EXPECT_GT(cache.hits(), 0);
  ASSERT_EQ(multi_parallel.size(), specs.size());
  ASSERT_EQ(multi_again.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "spec=" << s << " (" << specs[s].Name() << ")");
    ExpectResultMatchesReference(multi_parallel[s], reference[s]);
    ExpectResultMatchesReference(multi_again[s], reference[s]);
  }
}

TEST(SweepEngineDifferentialTest, DenseCellMatchesPerSpecSimulation) {
  RunDifferential(MakeCell(42, /*churn=*/false));
}

TEST(SweepEngineDifferentialTest, ChurnHeavyCellMatchesPerSpecSimulation) {
  RunDifferential(MakeCell(43, /*churn=*/true));
}

// ----- SweepBank checkpoint state. -----

// Random resident sets with churn: tasks arrive, stay a few polls and leave.
std::vector<std::vector<TaskSample>> ChurnPolls(uint64_t seed, int polls) {
  Rng rng(seed);
  std::vector<std::vector<TaskSample>> out;
  std::vector<TaskSample> resident;
  TaskId next_id = 1;
  for (int t = 0; t < polls; ++t) {
    std::erase_if(resident, [&rng](const TaskSample&) { return rng.UniformDouble() < 0.15; });
    while (resident.size() < 6 && rng.UniformDouble() < 0.7) {
      resident.push_back({next_id++, 0.0, 0.05 + rng.UniformDouble()});
    }
    for (TaskSample& task : resident) {
      task.usage = task.limit * rng.UniformDouble();
    }
    out.push_back(resident);
  }
  return out;
}

// Rosters the trace walk never produces: every poll shuffles the resident
// tasks, and ids from a small pool leave and come back (a re-arrival
// restarts warm-up). The bank carries per-task state by id through its
// roster rebuild, the reference through a map keyed by id, so every spec
// must agree bit for bit.
TEST(SweepBankTest, ShuffledRostersMatchReference) {
  const std::vector<PredictorSpec> specs = MixedGrid();
  const SweepPlan plan(specs);
  SweepBank bank;
  bank.Attach(&plan);
  std::vector<std::unique_ptr<PeakPredictor>> references;
  for (const PredictorSpec& spec : specs) {
    references.push_back(reference::CreateReferencePredictor(spec));
  }
  Rng rng(92);
  std::vector<TaskSample> resident;
  for (int t = 0; t < 300; ++t) {
    std::erase_if(resident, [&rng](const TaskSample&) { return rng.UniformDouble() < 0.1; });
    while (resident.size() < 10 && rng.UniformDouble() < 0.6) {
      const TaskId id = static_cast<TaskId>(rng.UniformInt(24));
      if (std::ranges::none_of(resident, [id](const TaskSample& task) { return task.task_id == id; })) {
        resident.push_back({id, 0.0, 0.05 + rng.UniformDouble()});
      }
    }
    for (size_t i = resident.size(); i > 1; --i) {
      std::swap(resident[i - 1], resident[rng.UniformInt(i)]);
    }
    for (TaskSample& task : resident) {
      task.usage = task.limit * rng.UniformDouble();
    }
    bank.Observe(t, resident);
    for (size_t s = 0; s < specs.size(); ++s) {
      references[s]->Observe(t, resident);
      ExpectSameBits(bank.Predictions()[s], references[s]->PredictPeak(), "prediction");
    }
  }
}

std::vector<uint8_t> SavedBank(const SweepBank& bank) {
  ByteWriter writer;
  bank.SaveState(writer);
  return std::vector<uint8_t>(writer.bytes().begin(), writer.bytes().end());
}

TEST(SweepBankStateTest, RoundTripContinuesBitIdentically) {
  const std::vector<PredictorSpec> specs = MixedGrid();
  const SweepPlan plan(specs);
  const std::vector<std::vector<TaskSample>> polls = ChurnPolls(90, 60);
  for (const int cut : {0, 1, 7, 30, 59}) {
    SCOPED_TRACE(::testing::Message() << "cut=" << cut);
    SweepBank live;
    live.Attach(&plan);
    for (int t = 0; t < cut; ++t) {
      live.Observe(t, polls[t]);
    }
    const std::vector<uint8_t> bytes = SavedBank(live);
    SweepBank restored;
    restored.Attach(&plan);
    ByteReader reader(bytes);
    ASSERT_TRUE(restored.LoadState(reader));
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_TRUE(std::ranges::equal(restored.Predictions(), live.Predictions()));
    for (int t = cut; t < static_cast<int>(polls.size()); ++t) {
      live.Observe(t, polls[t]);
      restored.Observe(t, polls[t]);
      for (int s = 0; s < plan.num_specs(); ++s) {
        ExpectSameBits(restored.Predictions()[s], live.Predictions()[s], "prediction");
      }
    }
  }
}

TEST(SweepBankStateTest, LoadRejectsPayloadOfAnotherPlan) {
  const std::vector<std::vector<TaskSample>> polls = ChurnPolls(91, 20);
  const auto saved_from = [&polls](const SweepPlan& plan) {
    SweepBank bank;
    bank.Attach(&plan);
    for (int t = 0; t < static_cast<int>(polls.size()); ++t) {
      bank.Observe(t, polls[t]);
    }
    return SavedBank(bank);
  };
  const auto loads_into = [](const SweepPlan& plan, const std::vector<uint8_t>& bytes) {
    SweepBank bank;
    bank.Attach(&plan);
    ByteReader reader(bytes);
    return bank.LoadState(reader) && reader.AtEnd();
  };
  const std::vector<PredictorSpec> rc8 = {RcLikeSpec(99.0, 3, 8)};
  const std::vector<PredictorSpec> rc9 = {RcLikeSpec(99.0, 3, 9)};
  const std::vector<PredictorSpec> n_sigma = {NSigmaSpec(3.0, 3, 8)};
  const std::vector<PredictorSpec> borg = {BorgDefaultSpec(0.9)};
  const std::vector<PredictorSpec> two = {RcLikeSpec(99.0, 3, 8), RcLikeSpec(90.0, 3, 8)};
  const SweepPlan rc8_plan(rc8), rc9_plan(rc9), n_sigma_plan(n_sigma), borg_plan(borg),
      two_plan(two);
  ASSERT_TRUE(loads_into(rc8_plan, saved_from(rc8_plan)));
  ASSERT_TRUE(loads_into(borg_plan, saved_from(borg_plan)));
  EXPECT_FALSE(loads_into(rc9_plan, saved_from(rc8_plan)));       // Window capacity.
  EXPECT_FALSE(loads_into(n_sigma_plan, saved_from(rc8_plan)));   // Group counts.
  EXPECT_FALSE(loads_into(borg_plan, saved_from(n_sigma_plan)));  // Roster, stateless plan.
  EXPECT_FALSE(loads_into(two_plan, saved_from(rc8_plan)));       // Prediction count.
}

// Every truncation is rejected and every bit flip either is rejected or
// decodes into a bank that keeps running — never a CHECK abort or a crash.
TEST(SweepBankStateTest, DamagedPayloadIsRejectedWithoutCrashing) {
  const std::vector<PredictorSpec> specs = MixedGrid();
  const SweepPlan plan(specs);
  const std::vector<std::vector<TaskSample>> polls = ChurnPolls(92, 30);
  SweepBank live;
  live.Attach(&plan);
  for (int t = 0; t < 20; ++t) {
    live.Observe(t, polls[t]);
  }
  const std::vector<uint8_t> bytes = SavedBank(live);
  SweepBank bank;
  for (size_t length = 0; length < bytes.size(); length += 7) {
    bank.Attach(&plan);
    ByteReader reader(std::span<const uint8_t>(bytes.data(), length));
    EXPECT_FALSE(bank.LoadState(reader)) << "length " << length;
  }
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::vector<uint8_t> flipped = bytes;
    flipped[off] ^= static_cast<uint8_t>(1u << (off % 8));
    bank.Attach(&plan);
    ByteReader reader(flipped);
    if (bank.LoadState(reader)) {
      for (int t = 20; t < 30; ++t) {
        bank.Observe(t, polls[t]);
      }
    }
  }
}

TEST(SweepEngineTest, EmptySpecListYieldsNoResults) {
  const CellTrace cell = MakeCell(44, /*churn=*/true);
  EXPECT_TRUE(SimulateCellMulti(cell, {}, SimOptions{}).empty());
}

}  // namespace
}  // namespace crf
