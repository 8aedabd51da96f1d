#include "crf/serve/replay.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <span>
#include <string>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"
#include "crf/util/thread_pool.h"

namespace crf {

StreamReplayer::StreamReplayer(const CellTrace& cell, const PredictorSpec& spec,
                               const ReplayOptions& options)
    : cell_(&cell),
      columns_(cell),
      options_(options),
      service_(spec, cell.num_machines()),
      metrics_(options.num_shards) {
  CRF_CHECK_GT(cell.num_intervals, 0);
  CRF_CHECK_GT(options_.num_shards, 0);

  const int num_machines = cell.num_machines();
  const Interval num_intervals = cell.num_intervals;
  walks_.resize(num_machines);
  for (int m = 0; m < num_machines; ++m) {
    walks_[m].StartTraceWalk(columns_, cell.machine_tasks(m));
  }
  accums_.resize(num_machines);

  // Contiguous machine blocks: shard s owns [s*block, (s+1)*block) ∩ [0, M).
  const int block = (num_machines + options_.num_shards - 1) / options_.num_shards;
  machine_block_ = std::max(block, 1);
  shards_.resize(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    ShardState& shard = shards_[s];
    shard.begin_machine = std::min(s * block, num_machines);
    shard.end_machine = std::min((s + 1) * block, num_machines);
    shard.cell_limit.assign(num_intervals, 0.0);
    shard.cell_prediction.assign(num_intervals, 0.0);
  }
}

void StreamReplayer::EnsureOracle(ShardState& shard, int machine) {
  if (shard.oracle_machine == machine) {
    return;
  }
  ComputeOracleInto(*cell_, machine, options_.horizon,
                    options_.use_total_usage_oracle ? OracleKind::kTotalUsage : OracleKind::kPeak,
                    shard.oracle_scratch, shard.oracle);
  shard.oracle_machine = machine;
}

bool StreamReplayer::ApplyTick(ShardState& shard, ShardMetrics& shard_metrics, int machine,
                               Interval tau, std::span<const StreamEvent> events,
                               std::string* error) {
  // A rejected batch leaves no trace: metrics count applied ticks only.
  const uint64_t tick_number = shard_metrics.ticks + 1;
  const int period = options_.latency_sample_period;
  const bool timed = period > 0 && tick_number % static_cast<uint64_t>(period) == 0;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
  if (!service_.IngestTick(machine, tau, events, error)) {
    return false;
  }
  if (timed) {
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    shard_metrics.predict_latency_log2_ns.Add(ns > 1.0 ? std::log2(ns) : 0.0, ns);
  }
  shard_metrics.sequence += events.size();
  shard_metrics.ticks = tick_number;
  shard_metrics.max_batch_events =
      std::max(shard_metrics.max_batch_events, static_cast<int64_t>(events.size()));

  const double prediction = service_.Predict(machine);
  ScoreTick(tau, std::span(&prediction, 1), shard.oracle[tau], service_.LimitSum(machine),
            !service_.Roster(machine).empty(), std::span(&accums_[machine].risk, 1),
            &shard.cell_limit, std::span(&shard.cell_prediction, 1));
  return true;
}

void StreamReplayer::AdvanceShard(int shard_index, Interval from, Interval until) {
  ShardState& shard = shards_[shard_index];
  ShardMetrics& shard_metrics = metrics_.shard(shard_index);

  // On an mmap-loaded trace, finished machines' usage pages are evicted as
  // their final ticks are processed, so replay RSS scales with the machines
  // in flight rather than the trace (dropped pages refault from the page
  // cache, so results never change). They are returned in blocks: a
  // per-machine drop would strand the page at every machine boundary (the
  // inward rounding never evicts a shared page), so batch ~128 machines per
  // madvise — the block in flight stays a few MB while the strand count
  // falls from O(machines) to O(machines / block).
  constexpr int kDropBlock = 128;
  const bool drop_pages = until == cell_->num_intervals && cell_->is_mapped();
  int drop_from = shard.begin_machine;

  for (int m = shard.begin_machine; m < shard.end_machine; ++m) {
    EnsureOracle(shard, m);

    for (Interval tau = from; tau < until; ++tau) {
      shard.events.clear();
      walks_[m].AdvanceTrace(columns_, tau, m, &shard.events);
      std::string error;
      CRF_CHECK(ApplyTick(shard, shard_metrics, m, tau, shard.events, &error)) << error;
    }

    // The machine-outer loop consumes each machine's stream exactly once per
    // Advance window; once the final tick is done, its bulk pages will never
    // be read again.
    if (drop_pages && (m + 1 - drop_from >= kDropBlock || m + 1 == shard.end_machine)) {
      cell_->DropMachinePages(drop_from, m + 1);
      drop_from = m + 1;
    }
  }
}

void StreamReplayer::Advance(Interval until) {
  CRF_CHECK_GE(until, next_tick_);
  CRF_CHECK_LE(until, cell_->num_intervals);
  if (until == next_tick_) {
    return;
  }
  const Interval from = next_tick_;
  const auto t0 = std::chrono::steady_clock::now();
  if (options_.parallel) {
    ThreadPool& pool = options_.pool != nullptr ? *options_.pool : ThreadPool::Default();
    pool.ParallelForRanges(options_.num_shards, 1,
                           [this, from, until](int /*slot*/, int begin, int end) {
                             for (int s = begin; s < end; ++s) {
                               AdvanceShard(s, from, until);
                             }
                           });
  } else {
    for (int s = 0; s < options_.num_shards; ++s) {
      AdvanceShard(s, from, until);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  metrics_.AddElapsedSeconds(std::chrono::duration<double>(t1 - t0).count());
  next_tick_ = until;
}

bool StreamReplayer::PushMachineTick(int machine, Interval tau,
                                     std::span<const StreamEvent> events, std::string* error) {
  CRF_CHECK_GE(machine, 0);
  CRF_CHECK_LT(machine, cell_->num_machines());
  if (tau < next_tick_ || tau >= cell_->num_intervals) {
    *error = "tick " + std::to_string(tau) + " outside the open range [" +
             std::to_string(next_tick_) + ", " + std::to_string(cell_->num_intervals) + ")";
    return false;
  }
  const int s = shard_of(machine);
  ShardState& shard = shards_[s];
  EnsureOracle(shard, machine);
  return ApplyTick(shard, metrics_.shard(s), machine, tau, events, error);
}

bool StreamReplayer::CommitPushedWindow(Interval until) {
  if (until <= next_tick_ || until > cell_->num_intervals) {
    return false;
  }
  for (int m = 0; m < cell_->num_machines(); ++m) {
    if (service_.LastTick(m) != until - 1) {
      return false;
    }
  }
  next_tick_ = until;
  return true;
}

SimResult StreamReplayer::Finish() {
  CRF_CHECK(Done());
  const Interval num_intervals = cell_->num_intervals;
  const int num_machines = cell_->num_machines();

  SimResult result;
  result.cell_name = cell_->name;
  result.predictor_name = spec().Name();
  result.machines.resize(num_machines);
  for (int m = 0; m < num_machines; ++m) {
    FinalizeMachineMetrics(accums_[m].risk, m, num_intervals, result.machines[m]);
  }

  // Deterministic merge: shard partials summed in shard index order.
  std::vector<double> cell_limit(num_intervals, 0.0);
  std::vector<double> cell_prediction(num_intervals, 0.0);
  for (const ShardState& shard : shards_) {
    for (Interval t = 0; t < num_intervals; ++t) {
      cell_limit[t] += shard.cell_limit[t];
      cell_prediction[t] += shard.cell_prediction[t];
    }
  }
  result.cell_savings_series = CellSavingsSeries(cell_limit, cell_prediction);
  return result;
}

const ServeMetrics& StreamReplayer::Metrics() {
  ServeMetrics::RiskSummary risk;
  int64_t occupied = 0;
  int64_t occupied_violations = 0;
  bool any_occupied = false;
  for (const MachineAccum& accum : accums_) {
    risk.violations += accum.risk.violations();
    const RiskTailSummary tail = accum.risk.TailSummary();
    risk.max_violation_streak = std::max(risk.max_violation_streak, tail.max_violation_streak);
    risk.worst_severity_p999 = std::max(risk.worst_severity_p999, tail.severity_p999);
    occupied += accum.risk.occupied_intervals();
    occupied_violations += accum.risk.occupied_violations();
    if (accum.risk.occupied_intervals() > 0) {
      risk.worst_savings_at_risk = any_occupied
                                       ? std::min(risk.worst_savings_at_risk, tail.savings_at_risk)
                                       : tail.savings_at_risk;
      any_occupied = true;
    }
  }
  risk.violation_time_fraction =
      occupied > 0 ? static_cast<double>(occupied_violations) / static_cast<double>(occupied)
                   : 0.0;
  metrics_.SetViolations(risk.violations);
  metrics_.SetRiskSummary(risk);
  return metrics_;
}

template <typename Io, typename Self>
void StreamReplayer::Transfer(Io& io, Self& self) {
  const uint64_t num_intervals = static_cast<uint64_t>(self.cell_->num_intervals);
  io.Expect(int32_t{self.options_.num_shards});
  io.Expect(int32_t{self.next_tick_});
  for (int s = 0; s < self.options_.num_shards; ++s) {
    auto& shard = self.shards_[s];
    auto& shard_metrics = self.metrics_.shard(s);
    io.Fields(shard_metrics.sequence, shard_metrics.ticks, shard_metrics.max_batch_events);
    io.Field(shard.cell_limit, num_intervals);
    io.Field(shard.cell_prediction, num_intervals);
    io.Check([&] {
      return shard.cell_limit.size() == num_intervals &&
             shard.cell_prediction.size() == num_intervals &&
             shard_metrics.max_batch_events >= 0;
    });
  }
  for (int m = 0; m < self.cell_->num_machines() && io.ok(); ++m) {
    OvercommitService::TransferMachine(io, self.service_, m);
    io.Field(self.accums_[m].risk);
  }
}
CRF_INSTANTIATE_TRANSFER(StreamReplayer);

bool StreamReplayer::LoadStateFrom(ByteReader& in, Interval resume_tick) {
  if (resume_tick < 0 || resume_tick > cell_->num_intervals) {
    in.Fail();
    return false;
  }
  // The stored tick must be the one the caller resumes at.
  next_tick_ = resume_tick;
  in.Field(*this);
  if (!in.ok()) {
    return false;
  }

  // Restart the trace walks and cross-check the restored rosters against the
  // trace-derived resident sets — tasks, their limits and the limit sum, bit
  // for bit — so a corrupted roster that survived the payload checksum is
  // caught here rather than by a CHECK on the next departure.
  const auto same_task = [](const TaskSample& a, const TaskSample& b) {
    return a.task_id == b.task_id &&
           std::bit_cast<uint64_t>(a.limit) == std::bit_cast<uint64_t>(b.limit);
  };
  for (int m = 0; m < cell_->num_machines(); ++m) {
    walks_[m].StartTraceWalk(columns_, cell_->machine_tasks(m), resume_tick);
    if (!std::ranges::equal(service_.Roster(m), walks_[m].indices()) ||
        !std::ranges::equal(service_.RosterSamples(m), walks_[m].samples(), same_task) ||
        std::bit_cast<uint64_t>(service_.LimitSum(m)) !=
            std::bit_cast<uint64_t>(walks_[m].limit_sum())) {
      in.Fail();
      return false;
    }
    if (resume_tick > 0 && service_.LastTick(m) != resume_tick - 1) {
      in.Fail();
      return false;
    }
  }
  return true;
}

}  // namespace crf
