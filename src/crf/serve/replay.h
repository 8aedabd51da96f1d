// StreamReplayer: sharded streaming replay of a sealed trace (DESIGN.md §7).
//
// Drives the full serve pipeline: per-machine trace walks
// (crf/core/machine_roster.h) turn the trace into event streams, an
// OvercommitService maintains incremental predictor state, and per-machine
// accumulators score every published prediction against the clairvoyant
// oracle — the streaming differential twin of the batch SimulateCell.
//
// Sharding and determinism: machines are split into `num_shards` contiguous
// blocks. A shard is the unit of parallelism AND the unit of event ordering
// — each shard is processed by exactly one thread per Advance call, walks
// its machines in ascending order, and counts its own event sequence
// numbers. Results are merged shard-by-shard in shard index order. Because
// the shard structure is fixed by `num_shards` (never by the thread count),
// every number the replay produces is bit-identical at any thread count; the
// per-machine metrics are additionally bit-identical to the batch engine
// (shared event permutation + identical per-tick arithmetic), and to the
// batch they remain bit-identical for any shard count too (a machine's
// stream never crosses a shard boundary).
//
// Advance processes ticks in [next_tick, until) for every machine, so a
// checkpoint (crf/serve/checkpoint.h) can be cut at any interval boundary
// between Advance calls and restored to a bit-identical continuation.

#ifndef CRF_SERVE_REPLAY_H_
#define CRF_SERVE_REPLAY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crf/core/machine_roster.h"
#include "crf/core/oracle.h"
#include "crf/core/predictor_factory.h"
#include "crf/risk/risk_accumulator.h"
#include "crf/serve/serve_metrics.h"
#include "crf/serve/service.h"
#include "crf/sim/metrics.h"
#include "crf/trace/trace.h"

namespace crf {

class ByteReader;
class ByteWriter;

class ThreadPool;

struct ReplayOptions {
  // Oracle forecast horizon (paper Section 5.2 default: 24 hours).
  Interval horizon = kIntervalsPerDay;
  // Ablation: score against the unfiltered total-usage oracle.
  bool use_total_usage_oracle = false;
  // Process shards on the thread pool. Affects wall-clock only — never
  // results (see the determinism rule above).
  bool parallel = true;
  // Number of ingestion shards, fixed independently of the thread count.
  // Per-machine numbers are shard-invariant; the merged cell series groups
  // machine partial sums per shard, so its floating-point rounding depends
  // on this value (and never on the thread count).
  int num_shards = 16;
  // Sample the predict latency every N ticks per shard (0 disables).
  int latency_sample_period = 64;
  // Pool override (the bench matrix times the same replay at several pool
  // sizes); nullptr uses ThreadPool::Default(). Never affects results.
  ThreadPool* pool = nullptr;

  bool operator==(const ReplayOptions&) const = default;
};

class StreamReplayer {
 public:
  // `cell` must outlive the replayer.
  StreamReplayer(const CellTrace& cell, const PredictorSpec& spec,
                 const ReplayOptions& options = {});

  // Processes ticks [next_tick(), until) on every machine. `until` must not
  // exceed the trace length or precede next_tick().
  void Advance(Interval until);
  void AdvanceToEnd() { Advance(cell_->num_intervals); }

  Interval next_tick() const { return next_tick_; }
  bool Done() const { return next_tick_ == cell_->num_intervals; }

  // Scores into a SimResult (requires Done()): per-machine metrics are
  // bit-identical to batch SimulateMachine; the cell savings series merges
  // the per-shard partial series in shard order.
  SimResult Finish();

  // Updates the violation total and returns the metrics registry.
  const ServeMetrics& Metrics();
  // Mutable registry access for owners that attach extra JSON sections or
  // account wall-clock externally (the network tier). Not thread-safe
  // against a concurrent Advance/Push.
  ServeMetrics& MutableMetrics() { return metrics_; }

  // --- Push-mode ingest (the network tier's entry points) ---------------
  //
  // Instead of pulling events from the internal trace walks, an owner
  // may push externally supplied event batches. To keep every number
  // bit-identical to Advance, pushes must replicate AdvanceShard's loop
  // structure exactly: within a shard, machines are driven one at a time in
  // ascending order, each machine's ticks in ascending order over the same
  // window [next_tick, until); the window is then committed for all shards
  // at once. The per-shard oracle scratch is cached per machine, so the
  // caller must fully finish a machine before starting the next (the server
  // enforces this protocol on the wire).
  //
  // Concurrency contract: PushMachineTick calls for machines in DISTINCT
  // shards may run concurrently; calls within one shard must be serialized
  // by the caller (the server holds a per-shard lock). CommitPushedWindow
  // requires exclusive access to the whole replayer.

  int num_shards() const { return options_.num_shards; }
  // The shard owning `machine` (same contiguous-block map as Advance).
  int shard_of(int machine) const { return machine / machine_block_; }

  // Ingests one machine's event batch for interval `tau`; the service's
  // Predict() then holds the published prediction. A tick outside
  // [next_tick(), num_intervals) or a batch MachineRoster::Apply rejects
  // returns false with a diagnostic and changes nothing — no metric, no
  // accumulator — so the caller can report it and keep serving. `machine`
  // must be in range (the caller routes it to its shard first).
  bool PushMachineTick(int machine, Interval tau, std::span<const StreamEvent> events,
                       std::string* error);

  // Advances next_tick() to `until` after every machine has been pushed
  // through tick until-1. Returns false (leaving state unchanged) if any
  // machine lags or `until` is out of range.
  bool CommitPushedWindow(Interval until);

  const PredictorSpec& spec() const { return service_.spec(); }
  const ReplayOptions& options() const { return options_; }
  const CellTrace& cell() const { return *cell_; }
  const OvercommitService& service() const { return service_; }

  // Checkpoint payload: the complete resumable state — per-shard sequence
  // counters and partial series, per-machine service state and metric
  // accumulators. Trace walks are restarted at next_tick on load, and the
  // restored rosters (tasks, limits, limit sum) are validated bit for bit
  // against their trace-derived resident sets. LoadStateFrom returns false
  // on any malformed or inconsistent payload (the replayer must be
  // discarded).
  void SaveStateTo(ByteWriter& out) const;
  bool LoadStateFrom(ByteReader& in, Interval resume_tick);

 private:
  // Per-machine risk accounting (crf/risk), the streaming twin of the batch
  // engine's per-machine RiskAccumulator — Record() allocates nothing, so
  // the ingest hot path stays heap-free. Cache-line aligned: a machine's
  // accumulator is written every tick by the shard that owns it, and without
  // padding the two machines straddling a shard boundary would ping-pong one
  // line between two threads all run.
  struct alignas(64) MachineAccum {
    RiskAccumulator risk;
  };

  // Everything a shard touches per tick is owned by the shard: its partial
  // cell series (merged once, in shard order, at Finish), its event batch,
  // and its oracle scratch — each a separate allocation reached only from
  // this struct. The alignas keeps adjacent shards' scalar fields and
  // vector headers on distinct cache lines.
  struct alignas(64) ShardState {
    int begin_machine = 0;
    int end_machine = 0;
    // Partial per-interval series over this shard's machines.
    std::vector<double> cell_limit;
    std::vector<double> cell_prediction;
    // Reused scratch: the per-tick event batch and oracle computation.
    std::vector<StreamEvent> events;
    OracleScratch oracle_scratch;
    std::vector<double> oracle;
    // Machine the oracle scratch currently holds (-1: none). Lets push-mode
    // ingest reuse the oracle across a machine's successive batches.
    int oracle_machine = -1;
  };

  void AdvanceShard(int shard_index, Interval from, Interval until);
  // Computes the scoring oracle for `machine` into `shard.oracle` (cached by
  // shard.oracle_machine).
  void EnsureOracle(ShardState& shard, int machine);
  // The shared per-tick body of Advance and push-mode ingest: latency-
  // sampled IngestTick, then (only if it applied) metrics, risk recording and
  // cell series accumulation.
  bool ApplyTick(ShardState& shard, ShardMetrics& shard_metrics, int machine, Interval tau,
                 std::span<const StreamEvent> events, std::string* error);

  const CellTrace* cell_;
  MachineTaskColumns columns_;
  ReplayOptions options_;
  OvercommitService service_;
  // Per-machine trace walks producing the replayed event streams.
  std::vector<MachineRoster> walks_;
  std::vector<MachineAccum> accums_;
  std::vector<ShardState> shards_;
  ServeMetrics metrics_;
  Interval next_tick_ = 0;
  // Machines per shard block (shard_of's divisor; >= 1).
  int machine_block_ = 1;
};

}  // namespace crf

#endif  // CRF_SERVE_REPLAY_H_
