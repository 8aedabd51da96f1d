// MachineRoster: one machine's resident task set — the single kernel behind
// every trace-driven engine (DESIGN.md §6, §7).
//
// It holds the resident tasks' trace indices in roster order (arrival order
// with departed tasks compacted out), the TaskSample each hands the
// predictor, and the running limit sum. Every change goes through one
// private update routine, in the canonical order of stream_event.h:
// departures (limits subtracted in event order, survivors compacted in
// place), arrivals (appended), the empty-roster drift reset (the limit sum
// becomes exactly 0.0), then one usage sample per resident task. The batch
// and sweep engines, the stream replayer and load generator, the streaming
// service and the network tier all run this routine, so their limit sums and
// predictor inputs are bit-identical by construction.
//
// Two entry points feed it:
//  * The trace walk derives each tick's events from the machine's tasks
//    sorted by start and by departure time. The sorts compare timestamps
//    only, so ties keep std::sort's deterministic permutation — every engine
//    shares it because every engine walks through here. Trace input is valid
//    by construction: the walk validates nothing and, once warm, allocates
//    nothing.
//  * Apply() takes an externally supplied batch (a stream or the wire),
//    checks it against the roster and applies it; on error it returns false
//    with a diagnostic and leaves the roster exactly as it was.

#ifndef CRF_CORE_MACHINE_ROSTER_H_
#define CRF_CORE_MACHINE_ROSTER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crf/core/predictor.h"
#include "crf/trace/stream_event.h"
#include "crf/trace/trace.h"

namespace crf {

// A sealed trace's flat task columns, hoisted once per pass. Encodes the
// residency rule (trace.h): a task occupies [start, departure) with
// departure = max(start + runtime, start + 1), so a zero-length task is
// resident for exactly one interval.
struct MachineTaskColumns {
  explicit MachineTaskColumns(const CellTrace& cell)
      : start(cell.task_starts()),
        limit(cell.task_limits()),
        id(cell.task_ids()),
        offsets(cell.usage_offsets()),
        usage(cell.usage_arena()) {}

  std::span<const Interval> start;
  std::span<const double> limit;
  std::span<const TaskId> id;
  std::span<const uint64_t> offsets;
  std::span<const float> usage;

  Interval DepartureTime(int32_t i) const {
    const Interval runtime = static_cast<Interval>(offsets[i + 1] - offsets[i]);
    return std::max(start[i] + runtime, start[i] + 1);
  }
  double UsageAt(int32_t i, Interval tau) const {
    const int64_t k = static_cast<int64_t>(tau) - start[i];
    const uint64_t n = offsets[i + 1] - offsets[i];
    return k >= 0 && static_cast<uint64_t>(k) < n
               ? static_cast<double>(usage[offsets[i] + static_cast<uint64_t>(k)])
               : 0.0;
  }
};

class MachineRoster {
 public:
  // Resident task indices (trace columns) and samples, in roster order.
  std::span<const int32_t> indices() const { return indices_; }
  std::span<const TaskSample> samples() const { return samples_; }
  double limit_sum() const { return limit_sum_; }
  bool empty() const { return indices_.empty(); }

  // Starts a trace walk over `task_indices` of `cols` as if ticks
  // [0, start_tick) had been advanced: the same roster and limit-sum bits,
  // with usage left stale until the next AdvanceTrace.
  void StartTraceWalk(const MachineTaskColumns& cols, std::span<const int32_t> task_indices,
                      Interval start_tick = 0);
  // Applies the walk's next tick `tau` (consecutive from the start tick).
  // When `out` is non-null, also appends the tick's canonical events,
  // stamped with `machine` — the replayed event stream is this walk.
  void AdvanceTrace(const MachineTaskColumns& cols, Interval tau, int machine = -1,
                    std::vector<StreamEvent>* out = nullptr);

  // Applies tick `tau`'s batch. Rejects events out of canonical order or
  // stamped with another tick, a departure that is not resident, repeated,
  // or carries a limit other than the one the task arrived with, an arrival
  // that is resident or repeated, and samples that are not one per resident
  // task in roster order.
  bool Apply(Interval tau, std::span<const StreamEvent> events, std::string* error);

  // Replaces the state with a restored checkpoint's (equal-length arrays).
  void Restore(std::vector<int32_t> indices, std::vector<TaskSample> samples, double limit_sum);

 private:
  template <typename Tick>
  void Update(const Tick& tick);
  // Applies the walk's events up to `tau`; returns this tick's departure
  // and arrival runs.
  std::pair<std::span<const int32_t>, std::span<const int32_t>> WalkTick(
      const MachineTaskColumns& cols, Interval tau, bool fill_usage);

  std::vector<int32_t> indices_;
  std::vector<TaskSample> samples_;
  double limit_sum_ = 0.0;
  // Trace walk: task indices sorted by start / by departure, and positions.
  std::vector<int32_t> arrivals_;
  std::vector<int32_t> departures_;
  size_t next_arrival_ = 0;
  size_t next_departure_ = 0;
  // Apply scratch: the batch's departure, then arrival, event positions,
  // each run sorted by task index.
  std::vector<uint32_t> sorted_;
};

}  // namespace crf

#endif  // CRF_CORE_MACHINE_ROSTER_H_
