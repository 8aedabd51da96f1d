// P² (piecewise-parabolic) streaming quantile estimator, Jain & Chlamtac 1985.
//
// The cluster simulator tracks per-machine tail CPU scheduling latency over a
// month of 5-minute intervals; P² gives the p99/p90 estimate in O(1) memory
// per machine instead of buffering every latency sample, mirroring how a node
// agent would track its own tail latency.

#ifndef CRF_STATS_P2_QUANTILE_H_
#define CRF_STATS_P2_QUANTILE_H_

#include <array>
#include <cstdint>

namespace crf {

class P2Quantile {
 public:
  // quantile in (0, 1), e.g. 0.99 for the 99th percentile.
  explicit P2Quantile(double quantile);

  void Add(double value);

  // Current estimate. Exact until 5 samples have been seen (it falls back to
  // the sorted buffer); undefined (0) with no samples.
  double Value() const;

  int64_t count() const { return count_; }

  // Discards all samples, keeping the target quantile.
  void Reset();

  // Checkpoint support (crf/serve): the complete marker state, so a
  // restored estimator continues bit-identically to the uninterrupted one.
  // A load expects this instance's target quantile, validates every
  // structural invariant of the marker arrays, and fails (latching the
  // reader's failure flag) on any mismatch.
  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self);

 private:
  double quantile_;
  int64_t count_ = 0;
  // Marker heights, positions, and desired positions per the P² paper.
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> desired_increment_{};
};

}  // namespace crf

#endif  // CRF_STATS_P2_QUANTILE_H_
