// Bounded per-task usage history with O(1) percentile access.
//
// The node agent "only maintains a moving window storing the most recent
// samples" per task (Section 4). TaskHistory is that window, backed by
// IndexableWindow's ring plus one value-sorted array: a push is one rank
// search and one shift between the evicted and the new value's slots, the
// RC-like predictor's per-poll percentile is two direct loads and one
// interpolation, and the mean is a running sum. Non-finite samples are
// rejected at Push (a NaN would silently corrupt the sorted array and only
// trip the eviction check a full window later).

#ifndef CRF_CORE_TASK_HISTORY_H_
#define CRF_CORE_TASK_HISTORY_H_

#include "crf/core/indexable_window.h"

namespace crf {

class TaskHistory {
 public:
  explicit TaskHistory(int capacity) : window_(capacity) {}

  // Appends a sample, evicting the oldest if the window is full. The sample
  // must be finite.
  void Push(float sample) { window_.Push(sample); }

  // Discards all samples, keeping capacity and allocated storage.
  void Clear() { window_.Clear(); }

  int size() const { return window_.size(); }
  int capacity() const { return window_.capacity(); }
  bool empty() const { return window_.empty(); }

  // Percentile p in [0, 100] over the window, linear interpolation.
  // Requires a non-empty window.
  double Percentile(double p) const { return window_.Percentile(p); }

  // Mean over the window; 0 when empty.
  double Mean() const { return window_.Mean(); }

  // Newest sample; requires non-empty.
  float Latest() const { return window_.Latest(); }

  // Checkpoint support: see IndexableWindow::SaveState/LoadState.
  void SaveState(ByteWriter& out) const { window_.SaveState(out); }
  bool LoadState(ByteReader& in) { return window_.LoadState(in); }

 private:
  IndexableWindow window_;
};

}  // namespace crf

#endif  // CRF_CORE_TASK_HISTORY_H_
