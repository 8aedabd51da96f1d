// The streaming event model (DESIGN.md §7).
//
// The serve layer consumes a time-ordered stream of per-machine events, and
// MachineRoster (crf/core/machine_roster.h) both produces it from a trace
// and applies it. For each machine and each polling interval `tick`, the
// canonical order is:
//
//   1. kTaskDeparture  for every task whose residency ended at or before
//                      `tick`, in departure-time order;
//   2. kTaskArrival    for every task whose residency starts at or before
//                      `tick`, in start-time order;
//   3. kUsageSample    exactly one per resident task, in roster order (the
//                      arrival order with departed tasks compacted out).
//
// The order within 1 and 2 — including the permutation of ties — is produced
// by MachineRoster's trace walk, the same code the batch simulator runs, so
// the floating-point accumulation a consumer performs over the events is
// bit-identical to the batch engine's.

#ifndef CRF_TRACE_STREAM_EVENT_H_
#define CRF_TRACE_STREAM_EVENT_H_

#include <cstdint>

#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

enum class StreamEventKind : uint8_t {
  kTaskDeparture = 0,
  kTaskArrival = 1,
  kUsageSample = 2,
};

struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kUsageSample;
  int32_t machine = -1;
  // Stable identity of the task instance: its index in the backing trace's
  // task columns. TaskId is the trace-reported id and is NOT guaranteed
  // unique; consumers key roster membership on task_index.
  int32_t task_index = -1;
  Interval tick = 0;
  TaskId task_id = 0;
  double usage = 0.0;  // kUsageSample only; 0 otherwise.
  double limit = 0.0;  // the task's configured limit (all kinds).
};

}  // namespace crf

#endif  // CRF_TRACE_STREAM_EVENT_H_
