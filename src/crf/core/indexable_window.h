// A bounded moving window of float samples with constant-time order
// statistics: the storage layer under the sweep bank's per-task percentile
// windows and its machine-level chance and flex windows.
//
// The window keeps two views of the same samples, both allocated once at
// capacity:
//  * a ring buffer in arrival order (eviction, Latest);
//  * one value-sorted array, so the sample at any rank is a direct load.
//
// A push finds the evicted value's and the new value's positions in the
// sorted array and closes the gap with one shift between them. Windows of
// up to kMaxCountingCapacity samples find each position with a branch-free
// count over the whole padded array, which the compiler vectorizes; longer
// ones use a branch-free binary search, which there costs less than a
// linear count. A running sum makes Mean() O(1); pushes periodically
// recompute it exactly so incremental drift stays below any tolerance the
// simulator works at.

#ifndef CRF_CORE_INDEXABLE_WINDOW_H_
#define CRF_CORE_INDEXABLE_WINDOW_H_

#include <vector>

#include "crf/util/byte_io.h"

namespace crf {

class IndexableWindow {
 public:
  explicit IndexableWindow(int capacity);

  // Appends a sample, evicting the oldest if the window is full. Rejects
  // non-finite samples: a NaN would poison the value-ordered array (NaN
  // compares false against everything) and surface only much later as a
  // failed eviction lookup.
  void Push(float sample);

  // Discards all samples but keeps the capacity and allocated storage, so a
  // pooled window can be reused without reallocating.
  void Clear();

  int size() const { return static_cast<int>(ring_.size()); }
  int capacity() const { return capacity_; }
  bool empty() const { return ring_.empty(); }

  // Percentile p in [0, 100] over the window, linear interpolation between
  // the straddling order statistics. Requires a non-empty window.
  double Percentile(double p) const;

  // Mean over the window (running sum); 0 when empty.
  double Mean() const;

  // Newest sample; requires non-empty.
  float Latest() const;

  // Checkpoint support (crf/serve): the ring, the running sum and the
  // refresh countdown — the state a restored window needs to continue
  // bit-identically (the sum's drift depends on more than the sample
  // multiset). The sorted view is rebuilt from the ring on load. A load
  // validates every field, including a stored capacity different from this
  // window's, and fails (leaving the reader failed, LoadState leaving the
  // window unchanged) on any mismatch.
  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self);
  void SaveState(ByteWriter& out) const { out.Field(*this); }
  bool LoadState(ByteReader& in) { return in.Load(*this); }

 private:
  // Windows up to this capacity locate values by counting over the padded
  // sorted array; longer ones binary-search it. Measured crossover on
  // usage-like data: counting wins at 24 and 60 samples, loses at 120.
  static constexpr int kMaxCountingCapacity = 64;
  // The sorted array is padded with +inf to a multiple of this many floats,
  // so the counting pass runs in fixed-width blocks.
  static constexpr int kLanes = 8;
  // Pushes between exact recomputations of the running sum.
  static constexpr int kSumRefreshPeriod = 1 << 15;

  // Number of samples strictly less than `value`: its lower-bound index in
  // the sorted array.
  int CountBelow(float value) const;
  // Replaces one occurrence of `evicted` in the sorted array by `sample`.
  void Replace(float evicted, float sample);

  int capacity_;
  int head_ = 0;  // Index of the oldest sample once the ring is full.
  std::vector<float> ring_;
  // The ring's samples in ascending order; slots from size() on hold +inf.
  std::vector<float> sorted_;

  double sum_ = 0.0;
  int pushes_until_sum_refresh_ = kSumRefreshPeriod;
};

}  // namespace crf

#endif  // CRF_CORE_INDEXABLE_WINDOW_H_
