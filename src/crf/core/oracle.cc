#include "crf/core/oracle.h"

#include <algorithm>
#include <utility>

#include "crf/util/check.h"

namespace crf {

void ComputePeakOracleInto(const CellTrace& cell, int machine_index, Interval horizon,
                           OracleScratch& scratch, std::vector<double>& out) {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, cell.num_machines());
  CRF_CHECK_GE(horizon, 1);
  const Interval num_intervals = cell.num_intervals;
  const std::span<const Interval> starts = cell.task_starts();

  // Tasks ordered by arrival; the aggregate series of "tasks with start <=
  // tau" is constant between consecutive arrivals, so one sliding-window max
  // per segment gives the exact oracle.
  std::vector<int32_t>& order = scratch.order;
  const std::span<const int32_t> task_indices = cell.machine_tasks(machine_index);
  order.assign(task_indices.begin(), task_indices.end());
  std::sort(order.begin(), order.end(), [starts](int32_t a, int32_t b) {
    return starts[a] < starts[b];
  });

  std::vector<double>& aggregate = scratch.aggregate;
  aggregate.assign(num_intervals, 0.0);
  out.assign(num_intervals, 0.0);
  size_t next = 0;
  Interval tau = 0;
  while (tau < num_intervals) {
    // Admit every task arriving at or before tau into the aggregate.
    while (next < order.size() && starts[order[next]] <= tau) {
      const TaskView task = cell.task(order[next]);
      const std::span<const float> usage = task.usage();
      const Interval end = std::min(task.end(), num_intervals);
      for (Interval t = task.start(); t < end; ++t) {
        aggregate[t] += usage[t - task.start()];
      }
      ++next;
    }
    const Interval segment_end =
        next < order.size() ? std::min(starts[order[next]], num_intervals) : num_intervals;
    CRF_CHECK_GT(segment_end, tau);

    // Sliding max of `aggregate` over [u, u+horizon) for u in the segment.
    MonotonicMaxDeque& deque = scratch.deque;
    deque.Clear();
    Interval filled_to = tau;
    for (Interval u = tau; u < segment_end; ++u) {
      const Interval window_end =
          static_cast<Interval>(std::min<int64_t>(static_cast<int64_t>(u) + horizon,
                                                  num_intervals));
      while (filled_to < window_end) {
        deque.Push(filled_to, aggregate[filled_to]);
        ++filled_to;
      }
      deque.ExpireBelow(u);
      out[u] = deque.Max();
    }
    tau = segment_end;
  }
}

std::vector<double> ComputePeakOracle(const CellTrace& cell, int machine_index,
                                      Interval horizon) {
  OracleScratch scratch;
  std::vector<double> oracle;
  ComputePeakOracleInto(cell, machine_index, horizon, scratch, oracle);
  return oracle;
}

void ComputeTotalUsageOracleInto(const CellTrace& cell, int machine_index,
                                 Interval horizon, OracleScratch& scratch,
                                 std::vector<double>& out) {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, cell.num_machines());
  CRF_CHECK_GE(horizon, 1);
  const Interval num_intervals = cell.num_intervals;

  // The machine's aggregate usage series including future arrivals.
  std::vector<double>& usage = scratch.aggregate;
  usage.assign(num_intervals, 0.0);
  for (const int32_t index : cell.machine_tasks(machine_index)) {
    const TaskView task = cell.task(index);
    const std::span<const float> task_usage = task.usage();
    const Interval end = std::min(task.end(), num_intervals);
    for (Interval t = task.start(); t < end; ++t) {
      usage[t] += task_usage[t - task.start()];
    }
  }
  ForwardWindowMaxInto(usage, horizon, scratch.deque, out);
}

std::vector<double> ComputeTotalUsageOracle(const CellTrace& cell, int machine_index,
                                            Interval horizon) {
  OracleScratch scratch;
  std::vector<double> oracle;
  ComputeTotalUsageOracleInto(cell, machine_index, horizon, scratch, oracle);
  return oracle;
}

void ComputeOracleInto(const CellTrace& cell, int machine_index, Interval horizon,
                       OracleKind kind, OracleScratch& scratch, std::vector<double>& out) {
  if (kind == OracleKind::kPeak) {
    ComputePeakOracleInto(cell, machine_index, horizon, scratch, out);
  } else {
    ComputeTotalUsageOracleInto(cell, machine_index, horizon, scratch, out);
  }
}

size_t OracleCache::KeyHash::operator()(const Key& key) const {
  // FNV-style combine; the fields are small and well-distributed enough.
  size_t h = std::hash<const void*>()(key.cell);
  h = h * 1099511628211ull ^ std::hash<int64_t>()(key.machine);
  h = h * 1099511628211ull ^ std::hash<int64_t>()(static_cast<int64_t>(key.horizon));
  h = h * 1099511628211ull ^ static_cast<size_t>(key.kind);
  return h;
}

OracleCache::Series OracleCache::GetOrCompute(const CellTrace& cell, int machine_index,
                                              Interval horizon, OracleKind kind) {
  const Key key{&cell, machine_index, horizon, kind};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Compute outside the lock so distinct machines fill the cache in
  // parallel; a racing duplicate computation of the same key is wasted work
  // but harmless (first insert wins below).
  OracleScratch scratch;
  std::vector<double> oracle;
  ComputeOracleInto(cell, machine_index, horizon, kind, scratch, oracle);
  auto series = std::make_shared<const std::vector<double>>(std::move(oracle));
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.emplace(key, std::move(series));
  return it->second;
}

void OracleCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

int64_t OracleCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int64_t OracleCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

size_t OracleCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace crf
