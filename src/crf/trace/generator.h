// Synthetic cell trace generation.
//
// Produces a CellTrace from a CellProfile: machines, an initial resident
// population (services plus already-running batch/serving tasks), a stream of
// job arrivals with diurnally modulated rates held near the target population
// by a backfill controller, fixed placements chosen by a worst-fit packer
// (the paper keeps the Borg scheduler's placements, Section 5.1.2), and
// per-task usage series from the workload model. Usage is synthesized one
// machine at a time by MachineUsageKernel (workload_model.h), the same loop
// the cluster simulator's machine step runs; the in-memory and streamed
// outputs differ only in where the kernel's rows are written.

#ifndef CRF_TRACE_GENERATOR_H_
#define CRF_TRACE_GENERATOR_H_

#include <cstdint>
#include <string>

#include "crf/trace/cell_profile.h"
#include "crf/trace/trace.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"

namespace crf {

struct GeneratorOptions {
  Interval num_intervals = kIntervalsPerWeek;
  // When true, every task keeps its full within-interval percentile ladder
  // (RichUsage); needed by the Fig 1 / Fig 6 experiments, costs ~9x the
  // per-task memory.
  bool rich_stats = false;
  // 0 (default): worst-fit placement scans every machine — O(machines) per
  // task, the reference behavior all differential tests pin. > 0: probe that
  // many uniformly random machines and worst-fit among the feasible ones —
  // O(probes) per task, required to place millions of tasks on 100k+ machine
  // cells in reasonable time. Still fully deterministic for a fixed seed;
  // changing this value changes placements (it is part of the cell's
  // identity, like the seed). In sharded mode (placement_shards > 0) the
  // probes are drawn from the home shard's *feasible* machines via its
  // headroom treap, so no probe is wasted on a full machine.
  int placement_probes = 0;
  // 0 (default): the single global placement pass above. > 0: the sharded
  // placement engine — this many shard-local headroom treaps placing task
  // batches in parallel with cross-shard stealing (DESIGN.md §"Sharded
  // placement"). Deterministic for a fixed (seed, placement_shards) at any
  // thread count; changing the shard count changes placements (part of the
  // cell identity, like the seed and placement_probes).
  int placement_shards = 0;
  // Placement batches between cross-shard headroom-summary refreshes
  // (sharded mode only).
  int placement_rebalance_interval = 8;
  // Opt-in parallelism: sharded placement batches and per-machine usage
  // generation run on this pool; nullptr runs everything serially. The
  // generated bytes never depend on the pool — per-task usage RNG streams
  // are forked from task ids and every write lands in a disjoint row — so
  // this is purely a throughput knob.
  ThreadPool* pool = nullptr;
};

CellTrace GenerateCellTrace(const CellProfile& profile, const GeneratorOptions& options,
                            const Rng& rng);

// What GenerateCellTraceToFile wrote.
struct StreamedTraceInfo {
  int64_t num_tasks = 0;
  int64_t dropped_tasks = 0;
  uint64_t file_bytes = 0;
  // Placement-phase telemetry: wall time of the machine-init + initial-fill
  // + arrival-sweep phases, and spawn attempts (placed + dropped) — the
  // numerator/denominator of placements-per-second throughput accounting.
  double placement_ms = 0.0;
  int64_t placement_attempts = 0;
};

// Streaming generation for cells too large to seal in memory: runs the
// identical placement phase (same RNG draws, same placements, same drops),
// renumbers tasks machine-major, and writes the binary .crftrace at `path`
// through StreamingTraceWriter, generating usage machine by machine and
// evicting finished blocks. Resident memory scales with the placement
// metadata (O(tasks)) plus the machine blocks in flight, not with the usage
// samples. Per-machine content — task set, usage series, true peaks — is
// bit-identical to GenerateCellTrace's; only the task numbering
// (machine-major vs arrival order) differs. The file is built under a
// temporary name and renamed over `path` only once complete, so a failure
// or a killed process leaves `path` as it was. Returns false with `*error`
// on I/O failure.
bool GenerateCellTraceToFile(const CellProfile& profile, const GeneratorOptions& options,
                             const Rng& rng, const std::string& path, std::string* error,
                             StreamedTraceInfo* info = nullptr);

// Packing quality of the placement phase alone (no usage generation), for
// the shard-count quality studies and the placement-throughput bench.
struct PlacementPhaseStats {
  int64_t tasks_placed = 0;
  int64_t dropped_tasks = 0;
  int64_t placement_attempts = 0;  // placed + dropped
  double placement_ms = 0.0;
  // Allocation headroom left stranded when the run ends: sum over machines
  // of max(0, target_alloc_ratio*capacity - alloc), as a fraction of the
  // total target allocation. Lower = tighter packing.
  double stranded_fraction = 0.0;
};

PlacementPhaseStats MeasurePlacementPhase(const CellProfile& profile,
                                          const GeneratorOptions& options, const Rng& rng);

}  // namespace crf

#endif  // CRF_TRACE_GENERATOR_H_
