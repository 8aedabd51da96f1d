// Named ways to corrupt one tick's canonical event batch (stream_event.h)
// so that MachineRoster::Apply must reject it. Shared by the roster kernel
// test and the network server tests, which drive the same faults over the
// wire.

#ifndef CRF_TESTS_ROSTER_FAULTS_H_
#define CRF_TESTS_ROSTER_FAULTS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "crf/trace/stream_event.h"

namespace crf {

enum class RosterFault {
  kArrivalAlreadyResident,
  kDuplicateDeparture,
  kDuplicateArrival,
  kDepartureNotResident,
  kDepartureLimitMismatch,
  kMissingSample,
  kExtraSample,
  kReorderedSamples,
  kArrivalAfterSample,
};

constexpr RosterFault kAllRosterFaults[] = {
    RosterFault::kArrivalAlreadyResident, RosterFault::kDuplicateDeparture,
    RosterFault::kDuplicateArrival,       RosterFault::kDepartureNotResident,
    RosterFault::kDepartureLimitMismatch, RosterFault::kMissingSample,
    RosterFault::kExtraSample,            RosterFault::kReorderedSamples,
    RosterFault::kArrivalAfterSample,
};

// A task index no trace in the tests uses.
constexpr int32_t kForeignTask = 1 << 30;

// Words the rejection message must contain.
inline const char* RosterFaultKeyword(RosterFault fault) {
  switch (fault) {
    case RosterFault::kArrivalAlreadyResident:
      return "already resident";
    case RosterFault::kDuplicateDeparture:
    case RosterFault::kDuplicateArrival:
      return "repeated";
    case RosterFault::kDepartureNotResident:
      return "not resident";
    case RosterFault::kDepartureLimitMismatch:
      return "limit it arrived with";
    case RosterFault::kMissingSample:
    case RosterFault::kExtraSample:
    case RosterFault::kReorderedSamples:
      return "usage samples";
    case RosterFault::kArrivalAfterSample:
      return "canonical order";
  }
  return "";
}

// Applies `fault` to `events`, the honest batch of tick `tau`. Returns false,
// leaving `events` unchanged, when the tick lacks what the fault needs (a
// departure to repeat, two samples to swap, ...).
inline bool InjectRosterFault(RosterFault fault, Interval tau, std::vector<StreamEvent>& events) {
  // Canonical phases: [0, d) departures, [d, a) arrivals, [a, n) samples.
  const size_t n = events.size();
  size_t d = 0;
  while (d < n && events[d].kind == StreamEventKind::kTaskDeparture) {
    ++d;
  }
  size_t a = d;
  while (a < n && events[a].kind == StreamEventKind::kTaskArrival) {
    ++a;
  }
  const auto at = [&events](size_t k) { return events.begin() + static_cast<std::ptrdiff_t>(k); };
  StreamEvent foreign;
  foreign.tick = tau;
  foreign.task_index = kForeignTask;
  foreign.task_id = kForeignTask;
  foreign.limit = 0.5;

  switch (fault) {
    case RosterFault::kArrivalAlreadyResident:
      // A sampled task that did not arrive this tick was already resident.
      for (size_t k = a; k < n; ++k) {
        const int32_t index = events[k].task_index;
        if (std::none_of(at(d), at(a), [index](const StreamEvent& e) {
              return e.task_index == index;
            })) {
          StreamEvent arrival = events[k];
          arrival.kind = StreamEventKind::kTaskArrival;
          arrival.usage = 0.0;
          events.insert(at(d), arrival);
          return true;
        }
      }
      return false;
    case RosterFault::kDuplicateDeparture: {
      if (d == 0) {
        return false;
      }
      const StreamEvent departure = events[0];
      events.insert(at(0), departure);
      return true;
    }
    case RosterFault::kDuplicateArrival: {
      if (a == d) {
        return false;
      }
      const StreamEvent arrival = events[d];
      events.insert(at(d), arrival);
      return true;
    }
    case RosterFault::kDepartureNotResident:
      foreign.kind = StreamEventKind::kTaskDeparture;
      events.insert(at(0), foreign);
      return true;
    case RosterFault::kDepartureLimitMismatch:
      if (d == 0) {
        return false;
      }
      events[0].limit += 0.25;
      return true;
    case RosterFault::kMissingSample:
      if (n == a) {
        return false;
      }
      events.erase(at(a + (n - a) / 2));
      return true;
    case RosterFault::kExtraSample:
      foreign.kind = StreamEventKind::kUsageSample;
      events.push_back(foreign);
      return true;
    case RosterFault::kReorderedSamples:
      if (n - a < 2) {
        return false;
      }
      std::swap(events[a], events[a + 1]);
      return true;
    case RosterFault::kArrivalAfterSample:
      if (n == a) {
        return false;
      }
      foreign.kind = StreamEventKind::kTaskArrival;
      events.push_back(foreign);
      return true;
  }
  return false;
}

}  // namespace crf

#endif  // CRF_TESTS_ROSTER_FAULTS_H_
