// Cluster-level task placement (paper Section 2.1).
//
// Scheduling a task is (1) a feasibility filter — machines whose advertised
// free capacity (capacity minus the Borglet's published peak prediction)
// fits the task's limit — followed by (2) a bin-packing choice among the
// candidates. The paper's contribution lives entirely in step (1); packing
// is orthogonal, so the policy is a knob (with an ablation bench comparing
// them).
//
// Placement runs on a capacity tournament tree (crf/index/capacity_index):
// O(log M) best/worst-fit with anti-affinity exclusion probing, updated
// incrementally from per-machine deltas. The RNG-draw rule below is part of
// the contract; the O(M) linear-scan reference in tests/reference follows
// the same rule, so for a fixed seed both produce byte-identical placement
// sequences:
//   best/worst-fit: one uniform draw per attempted pass (the rotation offset
//                   that randomizes tie-breaking among equal capacities);
//   random-fit:     one uniform draw per pass with >= 1 feasible machine
//                   (the index of the chosen machine in (free, index) order).

#ifndef CRF_CLUSTER_SCHEDULER_H_
#define CRF_CLUSTER_SCHEDULER_H_

#include <string>
#include <vector>

#include "crf/index/capacity_index.h"
#include "crf/util/rng.h"

namespace crf {

enum class PackingPolicy {
  kBestFit,   // least advertised free capacity that still fits
  kWorstFit,  // most advertised free capacity
  kRandomFit, // uniform over feasible machines
};

std::string PackingPolicyName(PackingPolicy policy);

// The cell's one scheduler. Owns the advertised-free-capacity vector, the
// capacity index over it, and the RNG.
class Scheduler {
 public:
  Scheduler(PackingPolicy policy, const Rng& rng);

  // Sizes the scheduler for `num_machines` machines with zero advertised
  // free capacity; Publish() then streams in the real values.
  void Reset(int num_machines);

  // Publishes one machine's advertised free capacity (capacity - predicted
  // peak). The simulator streams per-machine deltas each polling interval
  // instead of copying the whole capacity vector.
  void Publish(int machine, double free);

  // Picks a machine for a task with the given limit, preferring machines not
  // in `exclude` (anti-affinity within a job). Returns -1 if no machine
  // fits. On success the machine's advertised free capacity is debited by
  // `limit` (scheduler-side accounting until the next poll).
  int Place(double limit, const std::vector<int>& exclude);

  double free_capacity(int machine) const { return free_capacity_[machine]; }
  int num_machines() const { return static_cast<int>(free_capacity_.size()); }

 private:
  // One placement pass; `exclude == nullptr` means no exclusions (the
  // fallback pass). Returns -1 when nothing feasible remains.
  int PlaceOnce(double limit, const std::vector<int>* exclude);

  PackingPolicy policy_;
  Rng rng_;
  std::vector<double> free_capacity_;
  CapacityTournamentTree tree_;

  // Scratch for random-fit (kept across calls to avoid reallocation).
  std::vector<int> exclude_scratch_;
  std::vector<int> rank_scratch_;
};

}  // namespace crf

#endif  // CRF_CLUSTER_SCHEDULER_H_
