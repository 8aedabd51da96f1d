// OvercommitService: incremental per-machine predictor state (DESIGN.md §7).
//
// The service compiles its PredictorSpec into one SweepPlan, shared by every
// machine. Each machine owns a SweepBank attached to that plan and a
// MachineRoster — the resident-set kernel the batch engine walks.
// IngestTick applies one interval's events through MachineRoster::Apply, in
// the batch walk's arithmetic order, then feeds the roster to the bank, so
// the prediction stream is bit-identical to the batch engine's. Steady
// state allocates nothing.
//
// Thread-safety: calls for DISTINCT machines may run concurrently; calls for
// one machine must be serialized (the replayer owns each machine in exactly
// one shard).

#ifndef CRF_SERVE_SERVICE_H_
#define CRF_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crf/core/machine_roster.h"
#include "crf/core/sweep_bank.h"
#include "crf/trace/stream_event.h"

namespace crf {

class OvercommitService {
 public:
  OvercommitService(const PredictorSpec& spec, int num_machines);

  // Applies machine `machine`'s event batch for interval `tau` (canonical
  // order of stream_event.h) and runs one bank round; Predict() then
  // returns the published prediction. Returns false with a diagnostic, and
  // leaves the machine untouched, when `tau` does not follow the machine's
  // last ingested tick or MachineRoster::Apply rejects the batch.
  bool IngestTick(int machine, Interval tau, std::span<const StreamEvent> events,
                  std::string* error);

  // The last published prediction / the machine's resident limit sum.
  double Predict(int machine) const { return machines_[machine].bank.Predictions()[0]; }
  double LimitSum(int machine) const { return machines_[machine].roster.limit_sum(); }
  Interval LastTick(int machine) const { return machines_[machine].last_tick; }
  // Resident roster (trace task indices, roster order) for validation.
  std::span<const int32_t> Roster(int machine) const {
    return machines_[machine].roster.indices();
  }
  // The resident tasks' samples, parallel to Roster(machine).
  std::span<const TaskSample> RosterSamples(int machine) const {
    return machines_[machine].roster.samples();
  }

  int num_machines() const { return static_cast<int>(machines_.size()); }
  const PredictorSpec& spec() const { return plan_->spec(0); }

  // Checkpoint support: machine `machine`'s complete state (last tick,
  // limit sum, published prediction, roster, bank) as one record. A load
  // validates structural consistency and fails on malformed input, leaving
  // the machine unspecified (the caller discards the service).
  template <typename Io, typename Self>
  static void TransferMachine(Io& io, Self& service, int machine);

 private:
  struct MachineState {
    SweepBank bank;
    MachineRoster roster;
    Interval last_tick = -1;
  };

  // On the heap, so the banks' plan pointers survive a move of the service.
  std::unique_ptr<const SweepPlan> plan_;
  std::vector<MachineState> machines_;
};

}  // namespace crf

#endif  // CRF_SERVE_SERVICE_H_
