#include "crf/core/machine_roster.h"

#include <bit>
#include <numeric>
#include <utility>

namespace crf {
namespace {

// One tick of the trace walk: the tick's runs of the sorted departure and
// arrival lists, usage read from the trace columns.
struct TraceTick {
  const MachineTaskColumns& cols;
  Interval tau;
  std::span<const int32_t> departures;
  std::span<const int32_t> arrivals;
  bool fill_usage;

  double DepartureLimit(size_t k) const { return cols.limit[departures[k]]; }
  // Earlier departures were compacted out on their own ticks, so every
  // resident task past its departure time is in this tick's run.
  bool Departs(int32_t index) const { return cols.DepartureTime(index) <= tau; }
  int32_t ArrivalIndex(size_t k) const { return arrivals[k]; }
  TaskSample ArrivalSample(size_t k) const {
    return {cols.id[arrivals[k]], 0.0, cols.limit[arrivals[k]]};
  }
  double Usage(size_t /*slot*/, int32_t index) const { return cols.UsageAt(index, tau); }
};

// The event in `run` (event positions sorted by task index) for task
// `index`, or nullptr.
const StreamEvent* FindEvent(std::span<const StreamEvent> events, std::span<const uint32_t> run,
                             int32_t index) {
  const auto it = std::lower_bound(run.begin(), run.end(), index, [events](uint32_t p, int32_t i) {
    return events[p].task_index < i;
  });
  return it != run.end() && events[*it].task_index == index ? &events[*it] : nullptr;
}

// A checked batch, split into its canonical phases.
struct EventTick {
  std::span<const StreamEvent> departures;
  std::span<const StreamEvent> arrivals;
  std::span<const StreamEvent> samples;
  std::span<const uint32_t> departing;  // departure positions by task index
  static constexpr bool fill_usage = true;

  // Checked bit-equal to the arrival limit: the trace walk's arithmetic.
  double DepartureLimit(size_t k) const { return departures[k].limit; }
  bool Departs(int32_t index) const {
    return FindEvent(departures, departing, index) != nullptr;
  }
  int32_t ArrivalIndex(size_t k) const { return arrivals[k].task_index; }
  TaskSample ArrivalSample(size_t k) const {
    return {arrivals[k].task_id, 0.0, arrivals[k].limit};
  }
  double Usage(size_t slot, int32_t /*index*/) const { return samples[slot].usage; }
};

bool Reject(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// "<what> of task <index> <problem> at tick <tau>".
bool RejectTask(std::string* error, const char* what, int32_t index, const std::string& problem,
                Interval tau) {
  return Reject(error, std::string(what) + " of task " + std::to_string(index) + " " + problem +
                           " at tick " + std::to_string(tau));
}

}  // namespace

template <typename Tick>
void MachineRoster::Update(const Tick& tick) {
  // 1. Departures: subtract limits in event order, then compact the
  // survivors in place, preserving their order.
  if (!tick.departures.empty()) {
    for (size_t k = 0; k < tick.departures.size(); ++k) {
      limit_sum_ -= tick.DepartureLimit(k);
    }
    size_t kept = 0;
    for (size_t r = 0; r < indices_.size(); ++r) {
      if (!tick.Departs(indices_[r])) {
        indices_[kept] = indices_[r];
        samples_[kept++] = samples_[r];
      }
    }
    indices_.resize(kept);
    samples_.resize(kept);
  }
  // 2. Arrivals: append, add limits.
  for (size_t k = 0; k < tick.arrivals.size(); ++k) {
    indices_.push_back(tick.ArrivalIndex(k));
    samples_.push_back(tick.ArrivalSample(k));
    limit_sum_ += samples_.back().limit;
  }
  // 3. Kill incremental drift: an empty machine's true limit sum is exactly 0.
  if (indices_.empty()) {
    limit_sum_ = 0.0;
  }
  // 4. Usage samples, in roster order.
  if (tick.fill_usage) {
    for (size_t slot = 0; slot < indices_.size(); ++slot) {
      samples_[slot].usage = tick.Usage(slot, indices_[slot]);
    }
  }
}

void MachineRoster::StartTraceWalk(const MachineTaskColumns& cols,
                                   std::span<const int32_t> task_indices, Interval start_tick) {
  arrivals_.assign(task_indices.begin(), task_indices.end());
  std::sort(arrivals_.begin(), arrivals_.end(),
            [&cols](int32_t a, int32_t b) { return cols.start[a] < cols.start[b]; });
  departures_.assign(task_indices.begin(), task_indices.end());
  std::sort(departures_.begin(), departures_.end(), [&cols](int32_t a, int32_t b) {
    return cols.DepartureTime(a) < cols.DepartureTime(b);
  });
  next_arrival_ = 0;
  next_departure_ = 0;
  indices_.clear();
  samples_.clear();
  limit_sum_ = 0.0;
  // Without the usage fill an event-free tick changes nothing, so step from
  // one event tick to the next.
  while (true) {
    Interval tau = start_tick;
    if (next_departure_ < departures_.size()) {
      tau = std::min(tau, cols.DepartureTime(departures_[next_departure_]));
    }
    if (next_arrival_ < arrivals_.size()) {
      tau = std::min(tau, cols.start[arrivals_[next_arrival_]]);
    }
    if (tau >= start_tick) {
      return;
    }
    WalkTick(cols, tau, /*fill_usage=*/false);
  }
}

std::pair<std::span<const int32_t>, std::span<const int32_t>> MachineRoster::WalkTick(
    const MachineTaskColumns& cols, Interval tau, bool fill_usage) {
  const size_t first_departure = next_departure_;
  const size_t first_arrival = next_arrival_;
  while (next_departure_ < departures_.size() &&
         cols.DepartureTime(departures_[next_departure_]) <= tau) {
    ++next_departure_;
  }
  while (next_arrival_ < arrivals_.size() && cols.start[arrivals_[next_arrival_]] <= tau) {
    ++next_arrival_;
  }
  const auto departing =
      std::span(departures_).subspan(first_departure, next_departure_ - first_departure);
  const auto arriving =
      std::span(arrivals_).subspan(first_arrival, next_arrival_ - first_arrival);
  Update(TraceTick{cols, tau, departing, arriving, fill_usage});
  return {departing, arriving};
}

void MachineRoster::AdvanceTrace(const MachineTaskColumns& cols, Interval tau, int machine,
                                 std::vector<StreamEvent>* out) {
  const auto [departing, arriving] = WalkTick(cols, tau, /*fill_usage=*/true);
  if (out == nullptr) {
    return;
  }
  const auto emit = [&](StreamEventKind kind, int32_t i, double usage) {
    out->push_back({kind, machine, i, tau, cols.id[i], usage, cols.limit[i]});
  };
  for (const int32_t i : departing) {
    emit(StreamEventKind::kTaskDeparture, i, 0.0);
  }
  for (const int32_t i : arriving) {
    emit(StreamEventKind::kTaskArrival, i, 0.0);
  }
  for (size_t slot = 0; slot < indices_.size(); ++slot) {
    emit(StreamEventKind::kUsageSample, indices_[slot], samples_[slot].usage);
  }
}

bool MachineRoster::Apply(Interval tau, std::span<const StreamEvent> events,
                          std::string* error) {
  // Phases: [0, d) departures, [d, a) arrivals, then nothing but samples.
  const size_t n = events.size();
  size_t d = 0;
  while (d < n && events[d].kind == StreamEventKind::kTaskDeparture) {
    ++d;
  }
  size_t a = d;
  while (a < n && events[a].kind == StreamEventKind::kTaskArrival) {
    ++a;
  }
  for (size_t k = 0; k < n; ++k) {
    if (events[k].tick != tau) {
      return Reject(error, "event stamped tick " + std::to_string(events[k].tick) +
                               " in the batch for tick " + std::to_string(tau));
    }
    if (k >= a && events[k].kind != StreamEventKind::kUsageSample) {
      return Reject(error, "events out of canonical order at tick " + std::to_string(tau) +
                               " (expected departures, arrivals, then samples)");
    }
  }

  // Departure and arrival positions sorted by task index: a repeat is then
  // adjacent, and membership is a binary search.
  sorted_.resize(a);
  std::iota(sorted_.begin(), sorted_.end(), 0u);
  const auto by_task = [events](uint32_t x, uint32_t y) {
    return events[x].task_index < events[y].task_index;
  };
  std::sort(sorted_.begin(), sorted_.begin() + d, by_task);
  std::sort(sorted_.begin() + d, sorted_.end(), by_task);
  for (size_t k = 1; k < a; ++k) {
    const int32_t index = events[sorted_[k]].task_index;
    if (k != d && events[sorted_[k - 1]].task_index == index) {
      return RejectTask(error, k < d ? "departure" : "arrival", index, "repeated", tau);
    }
  }
  const std::span<const uint32_t> departing(sorted_.data(), d);
  const std::span<const uint32_t> arriving(sorted_.data() + d, a - d);

  // One pass over the roster: a departing task must carry the limit it
  // arrived with, a survivor must not arrive again, and the survivors must
  // lead the samples in roster order; the arrivals close them.
  const std::span<const StreamEvent> samples = events.subspan(a);
  const auto reject_samples = [&] {
    return Reject(error, "usage samples at tick " + std::to_string(tau) +
                             " do not match the roster: expected one per resident task in "
                             "roster order, got " +
                             std::to_string(samples.size()));
  };
  size_t departed = 0;
  size_t kept = 0;
  for (size_t r = 0; r < indices_.size(); ++r) {
    const int32_t index = indices_[r];
    if (const StreamEvent* departure = d > 0 ? FindEvent(events, departing, index) : nullptr) {
      if (std::bit_cast<uint64_t>(departure->limit) !=
          std::bit_cast<uint64_t>(samples_[r].limit)) {
        return RejectTask(error, "departure", index,
                          "carries limit " + std::to_string(departure->limit) +
                              ", not the limit it arrived with " +
                              std::to_string(samples_[r].limit),
                          tau);
      }
      ++departed;
    } else if (a > d && FindEvent(events, arriving, index) != nullptr) {
      return RejectTask(error, "arrival", index, "already resident", tau);
    } else if (kept >= samples.size() || samples[kept++].task_index != index) {
      return reject_samples();
    }
  }
  // Departures are distinct and each match claimed a distinct resident.
  if (departed != d) {
    const auto missing = std::find_if(events.begin(), events.begin() + d, [&](const auto& e) {
      return std::find(indices_.begin(), indices_.end(), e.task_index) == indices_.end();
    });
    const int32_t index = missing == events.begin() + d ? -1 : missing->task_index;
    return RejectTask(error, "departure", index, "not resident", tau);
  }
  if (samples.size() != kept + (a - d)) {
    return reject_samples();
  }
  for (size_t k = d; k < a; ++k) {
    if (samples[kept + k - d].task_index != events[k].task_index) {
      return reject_samples();
    }
  }

  Update(EventTick{events.first(d), events.subspan(d, a - d), samples, departing});
  return true;
}

void MachineRoster::Restore(std::vector<int32_t> indices, std::vector<TaskSample> samples,
                            double limit_sum) {
  indices_ = std::move(indices);
  samples_ = std::move(samples);
  limit_sum_ = limit_sum;
}

}  // namespace crf
