#include "crf/serve/service.h"

#include <bit>
#include <cmath>
#include <utility>

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

void OvercommitService::SaveMachine(int machine, ByteWriter& out) const {
  const MachineState& state = machines_[machine];
  out.Write<int32_t>(state.last_tick);
  out.Write<double>(state.roster.limit_sum());
  out.Write<double>(Predict(machine));
  out.WriteVec(state.roster.indices());
  out.WriteVec(state.roster.samples());
  state.bank.SaveState(out);
}

bool OvercommitService::LoadMachine(int machine, ByteReader& in) {
  MachineState& state = machines_[machine];
  const Interval last_tick = in.Read<int32_t>();
  const double limit_sum = in.Read<double>();
  const double last_prediction = in.Read<double>();
  std::vector<int32_t> roster_index;
  std::vector<TaskSample> roster;
  if (!in.ReadVec(roster_index, kMaxRosterTasks) || !in.ReadVec(roster, kMaxRosterTasks)) {
    return false;
  }
  if (!in.ok() || last_tick < -1 || !std::isfinite(limit_sum) || limit_sum < 0.0 ||
      roster.size() != roster_index.size()) {
    in.Fail();
    return false;
  }
  for (const TaskSample& sample : roster) {
    if (!std::isfinite(sample.usage) || !std::isfinite(sample.limit) || sample.limit < 0.0) {
      in.Fail();
      return false;
    }
  }
  if (!state.bank.LoadState(in)) {
    return false;
  }
  // The published prediction is written twice; both copies must agree.
  if (std::bit_cast<uint64_t>(last_prediction) != std::bit_cast<uint64_t>(Predict(machine))) {
    in.Fail();
    return false;
  }
  state.last_tick = last_tick;
  state.roster.Restore(std::move(roster_index), std::move(roster), limit_sum);
  return true;
}

}  // namespace crf
