#include "crf/cluster/scheduler.h"

#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "reference/linear_scheduler.h"

namespace crf {
namespace {

using reference::LinearScanScheduler;
using reference::PublishAll;

enum class Placer { kIndexed, kLinear };

// The library's Scheduler or the linear-scan reference behind one surface,
// so every behavioral case runs on both: the indexed tournament tree is
// contractually byte-identical to the reference. A value parameter rather
// than a typed suite keeps the case names (Engines/SchedulerTest.<case>/
// Indexed and /LinearScan) stable.
class AnyPlacer {
 public:
  AnyPlacer(Placer placer, PackingPolicy policy, uint64_t seed)
      : impl_(placer == Placer::kIndexed
                  ? Impl(std::in_place_type<Scheduler>, policy, Rng(seed))
                  : Impl(std::in_place_type<LinearScanScheduler>, policy, Rng(seed))) {}

  void Reset(int num_machines) {
    std::visit([&](auto& placer) { placer.Reset(num_machines); }, impl_);
  }
  void Publish(int machine, double free) {
    std::visit([&](auto& placer) { placer.Publish(machine, free); }, impl_);
  }
  int Place(double limit, const std::vector<int>& exclude) {
    return std::visit([&](auto& placer) { return placer.Place(limit, exclude); }, impl_);
  }
  double free_capacity(int machine) const {
    return std::visit([&](const auto& placer) { return placer.free_capacity(machine); }, impl_);
  }

 private:
  using Impl = std::variant<Scheduler, LinearScanScheduler>;
  Impl impl_;
};

class SchedulerTest : public ::testing::TestWithParam<Placer> {
 protected:
  AnyPlacer Make(PackingPolicy policy, uint64_t seed) {
    return AnyPlacer(GetParam(), policy, seed);
  }
};

TEST_P(SchedulerTest, BestFitPicksTightestMachine) {
  AnyPlacer scheduler = Make(PackingPolicy::kBestFit, 1);
  PublishAll(scheduler, {0.5, 0.2, 0.9});
  EXPECT_EQ(scheduler.Place(0.2, {}), 1);
}

TEST_P(SchedulerTest, WorstFitPicksLoosestMachine) {
  AnyPlacer scheduler = Make(PackingPolicy::kWorstFit, 2);
  PublishAll(scheduler, {0.5, 0.2, 0.9});
  EXPECT_EQ(scheduler.Place(0.2, {}), 2);
}

TEST_P(SchedulerTest, InfeasibleReturnsMinusOne) {
  AnyPlacer scheduler = Make(PackingPolicy::kBestFit, 3);
  PublishAll(scheduler, {0.1, 0.2});
  EXPECT_EQ(scheduler.Place(0.5, {}), -1);
}

TEST_P(SchedulerTest, DebitsPlacedLimits) {
  AnyPlacer scheduler = Make(PackingPolicy::kBestFit, 4);
  PublishAll(scheduler, {0.5});
  EXPECT_EQ(scheduler.Place(0.3, {}), 0);
  // Only 0.2 left; a 0.3 task no longer fits without a fresh poll.
  EXPECT_EQ(scheduler.Place(0.3, {}), -1);
  EXPECT_EQ(scheduler.Place(0.2, {}), 0);
}

TEST_P(SchedulerTest, UpdateResetsAccounting) {
  AnyPlacer scheduler = Make(PackingPolicy::kBestFit, 5);
  PublishAll(scheduler, {0.5});
  EXPECT_EQ(scheduler.Place(0.5, {}), 0);
  EXPECT_EQ(scheduler.Place(0.5, {}), -1);
  PublishAll(scheduler, {0.5});
  EXPECT_EQ(scheduler.Place(0.5, {}), 0);
}

TEST_P(SchedulerTest, IncrementalPublishMatchesBulkUpdate) {
  AnyPlacer scheduler = Make(PackingPolicy::kBestFit, 5);
  scheduler.Reset(3);
  scheduler.Publish(0, 0.5);
  scheduler.Publish(1, 0.2);
  scheduler.Publish(2, 0.9);
  EXPECT_EQ(scheduler.Place(0.2, {}), 1);
  // Republish machine 1 tighter than the task: next-best is machine 0.
  scheduler.Publish(1, 0.1);
  EXPECT_EQ(scheduler.Place(0.2, {}), 0);
  EXPECT_DOUBLE_EQ(scheduler.free_capacity(0), 0.3);
}

TEST_P(SchedulerTest, HonorsExclusionsWhenPossible) {
  AnyPlacer scheduler = Make(PackingPolicy::kBestFit, 6);
  PublishAll(scheduler, {0.3, 0.5});
  // Machine 0 is tighter but excluded (already hosts a sibling task).
  EXPECT_EQ(scheduler.Place(0.2, {0}), 1);
}

TEST_P(SchedulerTest, FallsBackToExcludedWhenNothingElseFits) {
  AnyPlacer scheduler = Make(PackingPolicy::kBestFit, 7);
  PublishAll(scheduler, {0.9, 0.1});
  // Only machine 0 fits, despite the exclusion.
  EXPECT_EQ(scheduler.Place(0.5, {0}), 0);
}

TEST_P(SchedulerTest, WorstFitHonorsExclusions) {
  AnyPlacer scheduler = Make(PackingPolicy::kWorstFit, 11);
  PublishAll(scheduler, {0.4, 0.9, 0.6});
  EXPECT_EQ(scheduler.Place(0.2, {1}), 2);
  // All feasible machines excluded: the fallback pass ignores exclusions.
  EXPECT_EQ(scheduler.Place(0.65, {1}), 1);
}

TEST_P(SchedulerTest, RandomFitIsUniformish) {
  AnyPlacer scheduler = Make(PackingPolicy::kRandomFit, 8);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    PublishAll(scheduler, {1.0, 1.0, 1.0});
    const int m = scheduler.Place(0.1, {});
    ASSERT_GE(m, 0);
    ++counts[m];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST_P(SchedulerTest, RandomFitOnlyFeasible) {
  AnyPlacer scheduler = Make(PackingPolicy::kRandomFit, 9);
  for (int i = 0; i < 100; ++i) {
    PublishAll(scheduler, {0.05, 1.0, 0.05});
    EXPECT_EQ(scheduler.Place(0.5, {}), 1);
  }
}

TEST_P(SchedulerTest, RandomFitHonorsExclusions) {
  AnyPlacer scheduler = Make(PackingPolicy::kRandomFit, 12);
  for (int i = 0; i < 100; ++i) {
    PublishAll(scheduler, {1.0, 1.0, 1.0});
    // Duplicate exclusion entries (pass-2 fallback artifacts) must not skew
    // the count of remaining candidates.
    EXPECT_EQ(scheduler.Place(0.5, {0, 2, 0, 2}), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SchedulerTest,
                         ::testing::Values(Placer::kIndexed, Placer::kLinear),
                         [](const ::testing::TestParamInfo<Placer>& info) {
                           return info.param == Placer::kIndexed ? "Indexed" : "LinearScan";
                         });

// Lockstep against the reference: identical seeds must yield identical
// placement sequences and identical RNG consumption through mixed workloads.
TEST(SchedulerLockstepTest, EnginesAgreeOnPlacementSequences) {
  for (const PackingPolicy policy :
       {PackingPolicy::kBestFit, PackingPolicy::kWorstFit, PackingPolicy::kRandomFit}) {
    Scheduler indexed(policy, Rng(99));
    LinearScanScheduler linear(policy, Rng(99));
    Rng workload(1234);
    const int num_machines = 17;
    indexed.Reset(num_machines);
    linear.Reset(num_machines);
    std::vector<int> placed;
    for (int round = 0; round < 50; ++round) {
      for (int m = 0; m < num_machines; ++m) {
        // Coarse quantization forces frequent capacity ties.
        const double free = 0.25 * static_cast<double>(workload.UniformInt(5));
        indexed.Publish(m, free);
        linear.Publish(m, free);
      }
      placed.clear();
      for (int task = 0; task < 12; ++task) {
        const double limit = 0.1 + 0.2 * workload.UniformDouble();
        const int a = indexed.Place(limit, placed);
        const int b = linear.Place(limit, placed);
        ASSERT_EQ(a, b) << PackingPolicyName(policy) << " round " << round;
        if (a >= 0) {
          placed.push_back(a);
        }
      }
      for (int m = 0; m < num_machines; ++m) {
        ASSERT_DOUBLE_EQ(indexed.free_capacity(m), linear.free_capacity(m));
      }
    }
  }
}

TEST(SchedulerTestBasics, PolicyNames) {
  EXPECT_EQ(PackingPolicyName(PackingPolicy::kBestFit), "best-fit");
  EXPECT_EQ(PackingPolicyName(PackingPolicy::kWorstFit), "worst-fit");
  EXPECT_EQ(PackingPolicyName(PackingPolicy::kRandomFit), "random-fit");
}

TEST(SchedulerDeathTest, PlaceBeforeUpdateAborts) {
  Scheduler scheduler(PackingPolicy::kBestFit, Rng(10));
  EXPECT_DEATH(scheduler.Place(0.1, {}), "Reset not called");
}

}  // namespace
}  // namespace crf
