// Reference cluster scheduler: the O(M) linear scan.
//
// The library's Scheduler (crf/cluster/scheduler.h) places through a
// capacity tournament tree in O(log M). This reference scans every machine
// on every placement pass. It has the same surface (Reset/Publish/Place/
// free_capacity) and follows the same RNG-draw rule:
//   best/worst-fit: one uniform draw per attempted pass (the rotation offset
//                   that randomizes tie-breaking among equal capacities);
//   random-fit:     one uniform draw per pass with >= 1 feasible machine
//                   (the index of the chosen machine in (free, index) order).
// scheduler_test runs every case on both and pins them in lockstep;
// cluster_sim_differential_test runs RunClusterSimWith on both and compares
// the sealed arenas byte for byte.

#ifndef CRF_TESTS_REFERENCE_LINEAR_SCHEDULER_H_
#define CRF_TESTS_REFERENCE_LINEAR_SCHEDULER_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "crf/cluster/scheduler.h"
#include "crf/util/check.h"
#include "crf/util/rng.h"

namespace crf::reference {

class LinearScanScheduler {
 public:
  LinearScanScheduler(PackingPolicy policy, const Rng& rng) : policy_(policy), rng_(rng) {}

  void Reset(int num_machines) {
    CRF_CHECK_GE(num_machines, 0);
    free_capacity_.assign(num_machines, 0.0);
  }

  void Publish(int machine, double free) {
    CRF_CHECK_GE(machine, 0);
    CRF_CHECK_LT(machine, num_machines());
    free_capacity_[machine] = free;
  }

  int Place(double limit, const std::vector<int>& exclude) {
    CRF_CHECK_GT(num_machines(), 0) << "Reset not called";
    // Pass 1 honors the anti-affinity exclusions; pass 2 ignores them.
    for (const bool honor_exclusions : {true, false}) {
      if (!honor_exclusions && exclude.empty()) {
        break;
      }
      const std::vector<int>* excl = honor_exclusions && !exclude.empty() ? &exclude : nullptr;
      const int best = PlaceOnce(limit, excl);
      if (best >= 0) {
        free_capacity_[best] -= limit;
        return best;
      }
    }
    return -1;
  }

  double free_capacity(int machine) const { return free_capacity_[machine]; }
  int num_machines() const { return static_cast<int>(free_capacity_.size()); }

 private:
  static bool Contains(const std::vector<int>* exclude, int machine) {
    return exclude != nullptr &&
           std::find(exclude->begin(), exclude->end(), machine) != exclude->end();
  }

  int PlaceOnce(double limit, const std::vector<int>* exclude) {
    const int num = num_machines();

    if (policy_ == PackingPolicy::kRandomFit) {
      // Count the feasible machines, draw once, select by rank in
      // (free, index) order.
      std::vector<std::pair<double, int>> candidates;
      for (int m = 0; m < num; ++m) {
        if (free_capacity_[m] >= limit && !Contains(exclude, m)) {
          candidates.emplace_back(free_capacity_[m], m);
        }
      }
      if (candidates.empty()) {
        return -1;
      }
      const int j = static_cast<int>(rng_.UniformInt(candidates.size()));
      std::nth_element(candidates.begin(), candidates.begin() + j, candidates.end());
      return candidates[j].second;
    }

    // Best/worst fit: the first strict improvement from a random start, so
    // the rotation offset breaks ties among equal capacities.
    const int offset = static_cast<int>(rng_.UniformInt(num));
    int best = -1;
    double best_key = std::numeric_limits<double>::infinity();
    for (int k = 0; k < num; ++k) {
      const int m = (k + offset) % num;
      if (free_capacity_[m] < limit || Contains(exclude, m)) {
        continue;
      }
      const double key =
          policy_ == PackingPolicy::kBestFit ? free_capacity_[m] : -free_capacity_[m];
      if (key < best_key) {
        best_key = key;
        best = m;
      }
    }
    return best;
  }

  PackingPolicy policy_;
  Rng rng_;
  std::vector<double> free_capacity_;
};

// Publishes a whole capacity vector to either placer: Reset, then one
// Publish per machine.
template <typename Placer>
void PublishAll(Placer& placer, const std::vector<double>& free) {
  placer.Reset(static_cast<int>(free.size()));
  for (int m = 0; m < static_cast<int>(free.size()); ++m) {
    placer.Publish(m, free[m]);
  }
}

}  // namespace crf::reference

#endif  // CRF_TESTS_REFERENCE_LINEAR_SCHEDULER_H_
