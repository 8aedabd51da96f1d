#include "crf/serve/service.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {
// Upper bound on a restored roster; rejects corrupted lengths early.
constexpr uint64_t kMaxRosterTasks = 1 << 20;
}  // namespace

OvercommitService::OvercommitService(const PredictorSpec& spec, int num_machines)
    : plan_(std::make_unique<const SweepPlan>(std::span(&spec, 1))) {
  CRF_CHECK_GT(num_machines, 0);
  machines_.resize(num_machines);
  for (MachineState& machine : machines_) {
    machine.bank.Attach(plan_.get());
  }
}

bool OvercommitService::IngestTick(int machine, Interval tau,
                                   std::span<const StreamEvent> events, std::string* error) {
  MachineState& state = machines_[machine];
  if (tau <= state.last_tick) {
    *error = "tick " + std::to_string(tau) + " does not follow the last ingested tick " +
             std::to_string(state.last_tick);
    return false;
  }
  if (!state.roster.Apply(tau, events, error)) {
    return false;
  }
  state.bank.Observe(tau, state.roster.samples());
  state.last_tick = tau;
  return true;
}

template <typename Io, typename Self>
void OvercommitService::TransferMachine(Io& io, Self& service, int machine) {
  auto& state = service.machines_[machine];
  auto& roster = state.roster;
  // The published prediction is written twice, here and in the bank; a load
  // requires both copies to agree.
  double prediction = state.bank.Predictions()[0];
  io.Fields(state.last_tick, roster.limit_sum_, prediction);
  io.Field(roster.indices_, kMaxRosterTasks);
  io.Field(roster.samples_, kMaxRosterTasks);
  io.Check([&] {
    return state.last_tick >= -1 && std::isfinite(roster.limit_sum_) &&
           roster.limit_sum_ >= 0.0 && roster.samples_.size() == roster.indices_.size() &&
           std::ranges::all_of(roster.samples_, [](const TaskSample& sample) {
             return std::isfinite(sample.usage) && std::isfinite(sample.limit) &&
                    sample.limit >= 0.0;
           });
  });
  io.Field(state.bank);
  io.Check([&] {
    return std::bit_cast<uint64_t>(prediction) ==
           std::bit_cast<uint64_t>(state.bank.Predictions()[0]);
  });
}
template void OvercommitService::TransferMachine(ByteWriter&, const OvercommitService&, int);
template void OvercommitService::TransferMachine(ByteReader&, OvercommitService&, int);

}  // namespace crf
