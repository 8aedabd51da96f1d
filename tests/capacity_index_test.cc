#include "crf/index/capacity_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "crf/cluster/scheduler.h"
#include "crf/util/rng.h"
#include "reference/linear_scheduler.h"

namespace crf {
namespace {

// Reference: the (free, machine) keys in sorted order.
std::vector<std::pair<double, int>> SortedKeys(const std::vector<double>& free) {
  std::vector<std::pair<double, int>> keys;
  keys.reserve(free.size());
  for (int m = 0; m < static_cast<int>(free.size()); ++m) {
    keys.emplace_back(free[m], m);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Checks every rank/select query against the sorted-array reference.
void ExpectMatchesReference(const CapacityTournamentTree& tree,
                            const std::vector<double>& free) {
  const std::vector<std::pair<double, int>> keys = SortedKeys(free);
  ASSERT_EQ(tree.num_machines(), static_cast<int>(free.size()));
  for (int rank = 0; rank < static_cast<int>(keys.size()); ++rank) {
    EXPECT_EQ(tree.MachineAtRank(rank), keys[rank].second) << "rank " << rank;
  }
  EXPECT_EQ(tree.MachineAtRank(-1), -1);
  EXPECT_EQ(tree.MachineAtRank(static_cast<int>(keys.size())), -1);
  for (int m = 0; m < static_cast<int>(free.size()); ++m) {
    EXPECT_DOUBLE_EQ(tree.free(m), free[m]);
    const auto key = std::make_pair(free[m], m);
    const int expected =
        static_cast<int>(std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
    EXPECT_EQ(tree.RankOfKey(free[m], m), expected) << "machine " << m;
    // Sentinel forms bracket the tie class of free[m].
    const int lo = static_cast<int>(
        std::lower_bound(keys.begin(), keys.end(), std::make_pair(free[m], -1)) -
        keys.begin());
    const int hi = static_cast<int>(std::lower_bound(keys.begin(), keys.end(),
                                                     std::make_pair(free[m], tree.num_machines())) -
                                    keys.begin());
    EXPECT_EQ(tree.RankOfKey(free[m], -1), lo);
    EXPECT_EQ(tree.RankOfKey(free[m], tree.num_machines()), hi);
  }
}

TEST(CapacityTournamentTreeTest, EmptyTree) {
  CapacityTournamentTree tree;
  EXPECT_EQ(tree.num_machines(), 0);
  EXPECT_EQ(tree.MachineAtRank(0), -1);
  EXPECT_EQ(tree.RankOfKey(0.5, -1), 0);

  tree.Assign({});  // Explicit empty assign stays empty.
  EXPECT_EQ(tree.num_machines(), 0);
  EXPECT_EQ(tree.MachineAtRank(0), -1);
}

TEST(CapacityTournamentTreeTest, SingleMachine) {
  CapacityTournamentTree tree;
  const std::vector<double> free = {0.7};
  tree.Assign(free);
  ExpectMatchesReference(tree, free);
  EXPECT_EQ(tree.RankOfKey(0.7, 0), 0);
  EXPECT_EQ(tree.RankOfKey(0.7, 1), 1);
  EXPECT_EQ(tree.RankOfKey(0.8, -1), 1);
  EXPECT_EQ(tree.RankOfKey(0.6, -1), 0);
}

TEST(CapacityTournamentTreeTest, AssignMatchesSortedReference) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_machines = 1 + rng.UniformInt(40);
    std::vector<double> free(num_machines);
    for (double& f : free) {
      // Quantized so ties are common (the index breaks them by machine id).
      f = 0.1 * static_cast<double>(rng.UniformInt(8));
    }
    CapacityTournamentTree tree;
    tree.Assign(free);
    ExpectMatchesReference(tree, free);
  }
}

TEST(CapacityTournamentTreeTest, IncrementalUpdateMatchesRebuild) {
  Rng rng(32);
  const int num_machines = 24;
  std::vector<double> free(num_machines, 0.5);
  CapacityTournamentTree incremental;
  incremental.Assign(free);
  for (int step = 0; step < 500; ++step) {
    const int m = rng.UniformInt(num_machines);
    free[m] = 0.05 * static_cast<double>(rng.UniformInt(21));
    incremental.Update(m, free[m]);
    if (step % 25 == 0) {
      ExpectMatchesReference(incremental, free);
    }
    // The treap's fixed priorities make the structure a pure function of the
    // capacities: a fresh rebuild must answer every query identically.
    CapacityTournamentTree rebuilt;
    rebuilt.Assign(free);
    for (int rank = 0; rank < num_machines; ++rank) {
      ASSERT_EQ(incremental.MachineAtRank(rank), rebuilt.MachineAtRank(rank))
          << "step " << step << " rank " << rank;
    }
  }
  ExpectMatchesReference(incremental, free);
}

TEST(CapacityTournamentTreeTest, UpdateToSameValueIsStable) {
  const std::vector<double> free = {0.2, 0.4, 0.4, 0.9};
  CapacityTournamentTree tree;
  tree.Assign(free);
  for (int m = 0; m < 4; ++m) {
    tree.Update(m, free[m]);
  }
  ExpectMatchesReference(tree, free);
}

TEST(CapacityTournamentTreeTest, AllEqualCapacitiesOrderByMachine) {
  const std::vector<double> free(9, 0.5);
  CapacityTournamentTree tree;
  tree.Assign(free);
  for (int rank = 0; rank < 9; ++rank) {
    EXPECT_EQ(tree.MachineAtRank(rank), rank);
  }
  EXPECT_EQ(tree.RankOfKey(0.5, -1), 0);
  EXPECT_EQ(tree.RankOfKey(0.5, 9), 9);
}

TEST(CapacityTournamentTreeTest, FullCellZeroFreeEverywhere) {
  // A saturated cell: every machine publishes zero free capacity.
  const std::vector<double> free(6, 0.0);
  CapacityTournamentTree tree;
  tree.Assign(free);
  ExpectMatchesReference(tree, free);
  // Nothing is feasible for any positive limit.
  EXPECT_EQ(tree.RankOfKey(1e-9, -1), 6);
}

// Exclusion probing through the scheduler: when every feasible machine is
// excluded, pass 1 must fail and the fallback pass must pick the machine the
// policy would choose ignoring exclusions.
TEST(CapacityTournamentTreeTest, ExclusionProbeFallsBackWhenAllFeasibleExcluded) {
  Scheduler best(PackingPolicy::kBestFit, Rng(77));
  reference::PublishAll(best, {0.6, 0.8, 0.1, 0.05});
  // Machines 0 and 1 are the only feasible ones and both are excluded.
  EXPECT_EQ(best.Place(0.5, {0, 1}), 0);

  Scheduler worst(PackingPolicy::kWorstFit, Rng(78));
  reference::PublishAll(worst, {0.6, 0.8, 0.1, 0.05});
  EXPECT_EQ(worst.Place(0.5, {0, 1}), 1);

  Scheduler random(PackingPolicy::kRandomFit, Rng(79));
  for (int i = 0; i < 50; ++i) {
    reference::PublishAll(random, {0.6, 0.8, 0.1, 0.05});
    const int m = random.Place(0.5, {0, 1});
    EXPECT_TRUE(m == 0 || m == 1) << m;
  }
}

// The probe must skip an arbitrarily long run of excluded machines at the
// feasible frontier, not just one.
TEST(CapacityTournamentTreeTest, ExclusionProbeSkipsLongExcludedRun) {
  Scheduler best(PackingPolicy::kBestFit, Rng(80));
  std::vector<double> free(12, 0.0);
  std::vector<int> exclude;
  for (int m = 0; m < 11; ++m) {
    free[m] = 0.5 + 0.01 * m;  // Tightest feasible machines, all excluded.
    exclude.push_back(m);
  }
  free[11] = 0.9;
  reference::PublishAll(best, free);
  EXPECT_EQ(best.Place(0.4, exclude), 11);
}

}  // namespace
}  // namespace crf
