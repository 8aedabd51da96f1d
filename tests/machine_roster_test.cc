// The resident-roster kernel (crf/core/machine_roster.h): the trace walk
// and Apply() of the walk's own events build bit-identical rosters and
// limit sums, a walk started mid-trace lands on the incremental walk's
// state, and a rejected batch leaves the roster exactly as it was.

#include "crf/core/machine_roster.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"
#include "roster_faults.h"

namespace crf {
namespace {

// Small adversarial cells: heavy same-tick churn (many tasks sharing start
// and departure ticks), zero-length tasks (no usage samples, resident for
// exactly one interval), single-interval tasks, tasks outliving the trace,
// and empty machines.
CellTrace RandomCell(uint64_t seed) {
  Rng rng(seed);
  const Interval num_intervals = 24 + static_cast<Interval>(rng.UniformInt(25));
  const int num_machines = 1 + static_cast<int>(rng.UniformInt(5));
  CellTraceBuilder builder("roster_cell", num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    if (m > 0 && rng.UniformDouble() < 0.1) {
      continue;  // Empty machine (machine 0 is always populated).
    }
    // A few hot ticks concentrate arrivals so departures and arrivals pile
    // onto the same intervals.
    const Interval hot[] = {static_cast<Interval>(rng.UniformInt(num_intervals)),
                            static_cast<Interval>(rng.UniformInt(num_intervals))};
    const int num_tasks = 6 + static_cast<int>(rng.UniformInt(20));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = rng.UniformDouble() < 0.5
                                 ? hot[rng.UniformInt(2)]
                                 : static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.03 + rng.UniformDouble() * 0.9;
      Interval len;
      const double shape = rng.UniformDouble();
      if (shape < 0.15) {
        len = 0;  // Zero-length.
      } else if (shape < 0.5) {
        len = 1 + static_cast<Interval>(rng.UniformInt(2));  // Churn.
      } else if (shape < 0.6) {
        len = num_intervals - start + 1 + static_cast<Interval>(rng.UniformInt(4));
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

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Exact equality of two rosters: indices, every sample field's bits, and
// the limit-sum bits.
void ExpectSameRoster(const MachineRoster& a, const MachineRoster& b) {
  ASSERT_EQ(a.indices().size(), b.indices().size());
  for (size_t k = 0; k < a.indices().size(); ++k) {
    EXPECT_EQ(a.indices()[k], b.indices()[k]);
    EXPECT_EQ(a.samples()[k].task_id, b.samples()[k].task_id);
    EXPECT_EQ(Bits(a.samples()[k].usage), Bits(b.samples()[k].usage));
    EXPECT_EQ(Bits(a.samples()[k].limit), Bits(b.samples()[k].limit));
  }
  EXPECT_EQ(Bits(a.limit_sum()), Bits(b.limit_sum()));
}

// A frozen copy of a roster's observable state.
struct Snapshot {
  explicit Snapshot(const MachineRoster& roster)
      : indices(roster.indices().begin(), roster.indices().end()),
        samples(roster.samples().begin(), roster.samples().end()),
        limit_sum(roster.limit_sum()) {}

  void ExpectUnchanged(const MachineRoster& roster) const {
    ASSERT_EQ(roster.indices().size(), indices.size());
    for (size_t k = 0; k < indices.size(); ++k) {
      EXPECT_EQ(roster.indices()[k], indices[k]);
      EXPECT_EQ(roster.samples()[k].task_id, samples[k].task_id);
      EXPECT_EQ(Bits(roster.samples()[k].usage), Bits(samples[k].usage));
      EXPECT_EQ(Bits(roster.samples()[k].limit), Bits(samples[k].limit));
    }
    EXPECT_EQ(Bits(roster.limit_sum()), Bits(limit_sum));
  }

  std::vector<int32_t> indices;
  std::vector<TaskSample> samples;
  double limit_sum;
};

class MachineRosterTest : public ::testing::TestWithParam<int> {};

// The walk emits each tick's canonical events; a second roster applies them
// through the validating entry point. Both must agree bit for bit on every
// tick of every machine.
TEST_P(MachineRosterTest, ApplyOfWalkEventsMatchesWalk) {
  const CellTrace cell = RandomCell(100 + static_cast<uint64_t>(GetParam()));
  const MachineTaskColumns cols(cell);
  for (int m = 0; m < cell.num_machines(); ++m) {
    SCOPED_TRACE(::testing::Message() << "machine=" << m);
    MachineRoster walk;
    MachineRoster applied;
    walk.StartTraceWalk(cols, cell.machine_tasks(m));
    std::vector<StreamEvent> events;
    for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
      events.clear();
      walk.AdvanceTrace(cols, tau, m, &events);
      std::string error;
      ASSERT_TRUE(applied.Apply(tau, events, &error)) << "tick " << tau << ": " << error;
      ExpectSameRoster(walk, applied);
    }
  }
}

// Starting a walk at any boundary reproduces the incremental walk's roster
// and limit-sum bits (usage is refreshed by the next tick, so compare after
// it).
TEST_P(MachineRosterTest, StartAtTickMatchesIncrementalWalk) {
  const CellTrace cell = RandomCell(200 + static_cast<uint64_t>(GetParam()));
  const MachineTaskColumns cols(cell);
  for (int m = 0; m < cell.num_machines(); ++m) {
    MachineRoster walk;
    walk.StartTraceWalk(cols, cell.machine_tasks(m));
    for (Interval resume = 0; resume < cell.num_intervals; ++resume) {
      SCOPED_TRACE(::testing::Message() << "machine=" << m << " resume=" << resume);
      MachineRoster seeked;
      seeked.StartTraceWalk(cols, cell.machine_tasks(m), resume);
      ASSERT_EQ(std::vector<int32_t>(seeked.indices().begin(), seeked.indices().end()),
                std::vector<int32_t>(walk.indices().begin(), walk.indices().end()));
      EXPECT_EQ(Bits(seeked.limit_sum()), Bits(walk.limit_sum()));
      walk.AdvanceTrace(cols, resume);
      seeked.AdvanceTrace(cols, resume);
      ExpectSameRoster(walk, seeked);
    }
  }
}

// Every fault, at every tick where it applies, is rejected with a message
// naming it, and leaves the roster and limit-sum bits untouched; the honest
// batch then still applies and the roster keeps tracking the walk.
TEST_P(MachineRosterTest, RejectedBatchLeavesRosterUnchanged) {
  const CellTrace cell = RandomCell(300 + static_cast<uint64_t>(GetParam()));
  const MachineTaskColumns cols(cell);
  int injected[std::size(kAllRosterFaults)] = {};
  for (int m = 0; m < cell.num_machines(); ++m) {
    MachineRoster walk;
    MachineRoster applied;
    walk.StartTraceWalk(cols, cell.machine_tasks(m));
    std::vector<StreamEvent> events;
    for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
      events.clear();
      walk.AdvanceTrace(cols, tau, m, &events);
      const Snapshot before(applied);
      for (const RosterFault fault : kAllRosterFaults) {
        std::vector<StreamEvent> corrupt = events;
        if (!InjectRosterFault(fault, tau, corrupt)) {
          continue;
        }
        ++injected[static_cast<int>(fault)];
        SCOPED_TRACE(::testing::Message() << "machine=" << m << " tick=" << tau
                                          << " fault=" << static_cast<int>(fault));
        std::string error;
        EXPECT_FALSE(applied.Apply(tau, corrupt, &error));
        EXPECT_NE(error.find(RosterFaultKeyword(fault)), std::string::npos) << error;
        before.ExpectUnchanged(applied);
      }
      std::string error;
      ASSERT_TRUE(applied.Apply(tau, events, &error)) << error;
      ExpectSameRoster(walk, applied);
    }
  }
  for (const RosterFault fault : kAllRosterFaults) {
    EXPECT_GT(injected[static_cast<int>(fault)], 0) << "fault " << static_cast<int>(fault);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineRosterTest, ::testing::Range(0, 12));

std::vector<StreamEvent> OneTaskArrives(Interval tau, int32_t index, double limit) {
  StreamEvent arrival;
  arrival.kind = StreamEventKind::kTaskArrival;
  arrival.task_index = index;
  arrival.task_id = index;
  arrival.tick = tau;
  arrival.limit = limit;
  StreamEvent sample = arrival;
  sample.kind = StreamEventKind::kUsageSample;
  sample.usage = limit / 2;
  return {arrival, sample};
}

TEST(MachineRosterApplyTest, RejectsEventsStampedWithAnotherTick) {
  MachineRoster roster;
  std::vector<StreamEvent> events = OneTaskArrives(0, 7, 0.5);
  events[1].tick = 1;
  std::string error;
  EXPECT_FALSE(roster.Apply(0, events, &error));
  EXPECT_NE(error.find("stamped tick 1"), std::string::npos) << error;
  EXPECT_TRUE(roster.empty());
}

TEST(MachineRosterApplyTest, DepartureMustCarryItsArrivalLimit) {
  MachineRoster roster;
  std::string error;
  ASSERT_TRUE(roster.Apply(0, OneTaskArrives(0, 7, 0.5), &error)) << error;
  StreamEvent departure;
  departure.kind = StreamEventKind::kTaskDeparture;
  departure.task_index = 7;
  departure.task_id = 7;
  departure.tick = 1;
  departure.limit = 0.75;
  EXPECT_FALSE(roster.Apply(1, std::vector<StreamEvent>{departure}, &error));
  EXPECT_NE(error.find("limit it arrived with"), std::string::npos) << error;
  EXPECT_EQ(roster.limit_sum(), 0.5);

  departure.limit = 0.5;
  ASSERT_TRUE(roster.Apply(1, std::vector<StreamEvent>{departure}, &error)) << error;
  EXPECT_TRUE(roster.empty());
  EXPECT_EQ(Bits(roster.limit_sum()), Bits(0.0));
}

}  // namespace
}  // namespace crf
