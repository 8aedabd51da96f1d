#include "crf/cluster/scheduler.h"

#include <algorithm>

#include "crf/util/check.h"

namespace crf {
namespace {

bool Contains(const std::vector<int>* exclude, int machine) {
  return exclude != nullptr &&
         std::find(exclude->begin(), exclude->end(), machine) != exclude->end();
}

}  // namespace

std::string PackingPolicyName(PackingPolicy policy) {
  switch (policy) {
    case PackingPolicy::kBestFit:
      return "best-fit";
    case PackingPolicy::kWorstFit:
      return "worst-fit";
    case PackingPolicy::kRandomFit:
      return "random-fit";
  }
  return "unknown";
}

Scheduler::Scheduler(PackingPolicy policy, const Rng& rng) : policy_(policy), rng_(rng) {}

void Scheduler::Reset(int num_machines) {
  CRF_CHECK_GE(num_machines, 0);
  free_capacity_.assign(num_machines, 0.0);
  tree_.Assign(free_capacity_);
}

void Scheduler::Publish(int machine, double free) {
  CRF_CHECK_GE(machine, 0);
  CRF_CHECK_LT(machine, num_machines());
  if (free_capacity_[machine] == free) {
    return;
  }
  free_capacity_[machine] = free;
  tree_.Update(machine, free);
}

int Scheduler::Place(double limit, const std::vector<int>& exclude) {
  CRF_CHECK_GT(num_machines(), 0) << "Reset not called";
  // Two passes: first honoring the anti-affinity exclusions, then ignoring
  // them (a constrained-but-placeable task beats a pending one).
  for (const bool honor_exclusions : {true, false}) {
    if (!honor_exclusions && exclude.empty()) {
      break;
    }
    const std::vector<int>* excl = honor_exclusions && !exclude.empty() ? &exclude : nullptr;
    const int best = PlaceOnce(limit, excl);
    if (best >= 0) {
      free_capacity_[best] -= limit;
      tree_.Update(best, free_capacity_[best]);
      return best;
    }
  }
  return -1;
}

int Scheduler::PlaceOnce(double limit, const std::vector<int>* exclude) {
  const int num = num_machines();

  if (policy_ == PackingPolicy::kRandomFit) {
    const int first_feasible = tree_.RankOfKey(limit, -1);
    int feasible = num - first_feasible;
    auto& excluded_ranks = rank_scratch_;
    excluded_ranks.clear();
    if (exclude != nullptr && !exclude->empty()) {
      // The exclusion list may repeat a machine (pass-2 fallbacks place
      // several siblings on one host); dedupe before counting.
      auto& distinct = exclude_scratch_;
      distinct.assign(exclude->begin(), exclude->end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
      for (const int e : distinct) {
        if (free_capacity_[e] >= limit) {
          excluded_ranks.push_back(tree_.RankOfKey(free_capacity_[e], e));
        }
      }
      feasible -= static_cast<int>(excluded_ranks.size());
      std::sort(excluded_ranks.begin(), excluded_ranks.end());
    }
    if (feasible <= 0) {
      return -1;
    }
    // j-th non-excluded feasible machine in (free, index) order: shift the
    // target rank past every excluded rank at or before it.
    int pos = first_feasible + static_cast<int>(rng_.UniformInt(feasible));
    for (const int rank : excluded_ranks) {
      if (rank <= pos) {
        ++pos;
      }
    }
    return tree_.MachineAtRank(pos);
  }

  const int offset = static_cast<int>(rng_.UniformInt(num));

  // Locate the extreme feasible capacity f* among non-excluded machines.
  // Probing in rank order skips at most |exclude| entries in total.
  int found = -1;
  double fstar = 0.0;
  if (policy_ == PackingPolicy::kBestFit) {
    for (int rank = tree_.RankOfKey(limit, -1); rank < num; ++rank) {
      const int m = tree_.MachineAtRank(rank);
      if (!Contains(exclude, m)) {
        found = m;
        fstar = free_capacity_[m];
        break;
      }
    }
  } else {  // kWorstFit: the largest capacity among non-excluded machines.
    for (int rank = num - 1; rank >= 0; --rank) {
      const int m = tree_.MachineAtRank(rank);
      if (Contains(exclude, m)) {
        continue;
      }
      if (free_capacity_[m] >= limit) {
        found = m;
        fstar = free_capacity_[m];
      }
      break;
    }
  }
  if (found < 0) {
    return -1;
  }

  // Rotation tie-break among the machines with free == f*: first machine in
  // index order >= offset, wrapping to the lowest indices. This reproduces
  // a linear scan's "first strict improvement from a random start".
  for (int rank = tree_.RankOfKey(fstar, offset); rank < num; ++rank) {
    const int m = tree_.MachineAtRank(rank);
    if (free_capacity_[m] != fstar) {
      break;
    }
    if (!Contains(exclude, m)) {
      return m;
    }
  }
  for (int rank = tree_.RankOfKey(fstar, -1); rank < num; ++rank) {
    const int m = tree_.MachineAtRank(rank);
    if (free_capacity_[m] != fstar || m >= offset) {
      break;
    }
    if (!Contains(exclude, m)) {
      return m;
    }
  }
  return found;  // Unreachable: `found` itself is in the tie class.
}

}  // namespace crf
