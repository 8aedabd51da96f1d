// The clairvoyant peak oracle (paper Section 3).
//
// PO(J(tau), tau) = max over t in [tau, tau + horizon) of the total usage of
// the tasks resident on the machine at tau. Crucially, the maximized series
// is *arrival-filtered*: tasks that arrive after tau are excluded (the
// scheduler is deciding what fits *now*; the oracle answers for the current
// task set, with departed tasks contributing zero). Section 5.2 picks a
// 24-hour horizon as the accuracy/cost sweet spot.
//
// ComputeTotalUsageOracle is the cheap unfiltered variant — a sliding max
// over the full machine series including future arrivals. It upper-bounds
// the exact oracle and is provided as an ablation.
//
// The oracle depends only on (cell, machine, horizon, kind) — never on the
// predictor under test — so parameter sweeps (Figs 8-12) re-derive the exact
// same series for every sweep point. OracleCache memoizes the series across
// sweep points, turning an O(points x oracle cost) sweep into O(oracle cost).

#ifndef CRF_CORE_ORACLE_H_
#define CRF_CORE_ORACLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "crf/stats/window_max.h"
#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

// Which oracle definition to compute/cache.
enum class OracleKind : uint8_t {
  kPeak,        // Exact arrival-filtered oracle (the paper's PO).
  kTotalUsage,  // Unfiltered ablation: sliding max of total machine usage.
};

// Reusable scratch for the oracle computations; buffers grow to the
// high-water size and are reused, so steady-state recomputation allocates
// nothing.
struct OracleScratch {
  std::vector<int32_t> order;
  std::vector<double> aggregate;
  MonotonicMaxDeque deque;
};

// Exact arrival-filtered oracle series for one machine, O(T + N*(H + len))
// via a monotonic-deque sliding maximum per constant-task-set segment.
// The Into variant writes into `out` reusing its capacity.
void ComputePeakOracleInto(const CellTrace& cell, int machine_index, Interval horizon,
                           OracleScratch& scratch, std::vector<double>& out);
std::vector<double> ComputePeakOracle(const CellTrace& cell, int machine_index,
                                      Interval horizon = kIntervalsPerDay);

// Unfiltered ablation: forward sliding max of the machine's total usage.
void ComputeTotalUsageOracleInto(const CellTrace& cell, int machine_index,
                                 Interval horizon, OracleScratch& scratch,
                                 std::vector<double>& out);
std::vector<double> ComputeTotalUsageOracle(const CellTrace& cell, int machine_index,
                                            Interval horizon = kIntervalsPerDay);

// The series of `kind` for one machine: the one place that picks between
// the two definitions above.
void ComputeOracleInto(const CellTrace& cell, int machine_index, Interval horizon,
                       OracleKind kind, OracleScratch& scratch, std::vector<double>& out);

// Thread-safe memo of oracle series keyed by (cell identity, machine,
// horizon, kind). Cell identity is the CellTrace's address: the caller owns
// the cache's scope and must not mutate or destroy a cell while its entries
// are live (call Clear() before reusing a cache across regenerated cells).
// Cached series are shared, so a hit is bit-identical to the miss that
// populated it.
class OracleCache {
 public:
  using Series = std::shared_ptr<const std::vector<double>>;

  // Returns the cached series for the key, computing it on first use. Safe
  // to call concurrently; racing computations of the same key are resolved
  // first-insert-wins so every caller sees one shared series.
  Series GetOrCompute(const CellTrace& cell, int machine_index, Interval horizon,
                      OracleKind kind);

  void Clear();

  int64_t hits() const;
  int64_t misses() const;
  size_t size() const;

 private:
  struct Key {
    const CellTrace* cell;
    int32_t machine;
    Interval horizon;
    OracleKind kind;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, Series, KeyHash> entries_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace crf

#endif  // CRF_CORE_ORACLE_H_
