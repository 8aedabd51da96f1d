// Moving window of the machine-level aggregate usage with incrementally
// maintained moments: the sweep bank's shared N-sigma state.
//
// A ring buffer of the last `capacity` aggregate samples plus running
// sum / sum-of-squares; the variance falls back to an exact Welford pass
// (which also refreshes the running moments) whenever the incremental value
// is within cancellation noise of zero.

#ifndef CRF_CORE_AGGREGATE_WINDOW_H_
#define CRF_CORE_AGGREGATE_WINDOW_H_

#include <vector>

namespace crf {

class ByteReader;
class ByteWriter;

class AggregateWindow {
 public:
  explicit AggregateWindow(int capacity);

  // Appends a sample, evicting the oldest if the window is full.
  void Push(double value);

  // Discards all samples, keeping capacity and storage.
  void Reset();

  int count() const { return count_; }

  // Mean of the window; requires count() > 0.
  double Mean() const { return sum_ / count_; }

  // Population standard deviation of the window; requires count() > 0.
  // Non-const: may recompute and refresh the running moments exactly.
  double Stddev();

  // Checkpoint support (crf/serve): serializes the ring layout and the
  // incrementally maintained moments, so a restored window continues
  // bit-identically (the running sums carry drift that a recompute from the
  // samples would cancel differently). LoadState validates against this
  // window's capacity and returns false on any mismatch.
  void SaveState(ByteWriter& out) const;
  bool LoadState(ByteReader& in);

 private:
  std::vector<double> window_;
  int head_ = 0;
  int count_ = 0;
  double sum_ = 0.0;
  double sumsq_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_AGGREGATE_WINDOW_H_
