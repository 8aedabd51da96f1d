// serve-loopback: the network serve tier with reads racing writes.
//
// An in-process OvercommitServer on 127.0.0.1 runs a push-mode
// StreamReplayer with the production spec. RunLoadGen streams a week of a
// 512-machine cell over two connections (a closed loop: each connection
// sends its next 256-tick batch when the previous one is answered), while a
// third connection sends admission checks in an open loop at 2,000/s on
// Zipfian-popular machines. After the first pass's ingest, the same trace is
// replayed in-process on a 4-thread pool; that replay is timed, and the
// server's end state must be bit-identical to it.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <thread>

#include "crf/core/spec_parser.h"
#include "crf/net/client.h"
#include "crf/net/loadgen.h"
#include "crf/net/server.h"
#include "crf/serve/replay.h"
#include "crf/trace/generator.h"
#include "crf/util/byte_io.h"
#include "crf/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMachines = 512;
constexpr int kIngestConnections = 2;
constexpr int kBatchTicks = 256;
constexpr double kProbeRate = 2000.0;
constexpr double kProbeTaskLimit = 0.1;
// Long enough for 2,000 idle probes: 20 beyond the idle p99.
constexpr double kIdleSeconds = 1.0;
constexpr uint64_t kTraceTag = 0x73657276;
constexpr uint64_t kProbeTag = 0x70726f62;

enum Phase : int { kIdle = 0, kLoaded = 1, kDone = 2 };

struct ProbeResult {
  double latency_ns = 0.0;  // response time minus due time
  double late_ns = 0.0;     // send time minus when the prober was free to send
  int phase = kIdle;
  bool ok = false;
};

double Nanos(Clock::duration d) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Open loop: probe i is due at start + i/rate however earlier probes fared,
// and its latency counts from the due time, so a stalled server is charged
// for the probes queued behind the stall. One connection carries one
// request at a time; a probe that falls due while the previous one is
// outstanding is sent when it returns, and only the delay past that point
// counts as the generator's own lateness.
void RunProber(crf::NetClient& client, ProbeSchedule schedule, const std::atomic<int>& phase,
               std::vector<ProbeResult>& out) {
  const auto start = Clock::now();
  auto previous_done = start;
  crf::AdmissionCheckRequest request;
  request.task_limit = kProbeTaskLimit;
  std::string error;
  for (;;) {
    const ProbeSchedule::Probe probe = schedule.Next();
    const auto due = start + std::chrono::nanoseconds(probe.due_ns);
    std::this_thread::sleep_until(due);
    const int at = phase.load(std::memory_order_acquire);
    if (at == kDone) {
      return;
    }
    request.machine = probe.machine;
    const auto sent = Clock::now();
    const bool ok = client.AdmissionCheck(request, &error).has_value();
    const auto done = Clock::now();
    out.push_back({Nanos(done - due), Nanos(sent - std::max(due, previous_done)), at, ok});
    previous_done = done;
    if (!ok) {
      return;
    }
  }
}

bool BitsEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Machines whose served state differs from the reference replay, or -1 when
// a query fails. Cell sums must match too (`cell_match`). These are the
// checks of RunLoadGen's own verify option, which cannot be used here: it
// replays and queries before RunLoadGen returns, while the prober still runs,
// so the replay's load and the queries would land in the admission numbers
// measured during ingest.
int CountMismatches(crf::NetClient& control, const crf::CellTrace& cell,
                    const crf::OvercommitService& service, bool* cell_match,
                    int64_t* queries) {
  const crf::Interval last = cell.num_intervals - 1;
  crf::MachineQueryRequest query;
  std::string error;
  int mismatched = 0;
  double prediction_sum = 0.0;
  double limit_sum = 0.0;
  for (int m = 0; m < cell.num_machines(); ++m) {
    query.machine = m;
    ++*queries;
    const auto state = control.MachineQuery(query, &error);
    if (!state) {
      return -1;
    }
    const std::span<const int32_t> roster = service.Roster(m);
    const uint64_t roster_hash = crf::Fnv1a64(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(roster.data()), roster.size() * sizeof(int32_t)));
    const bool match = state->last_tick == last &&
                       BitsEqual(state->prediction, service.Predict(m)) &&
                       BitsEqual(state->limit_sum, service.LimitSum(m)) &&
                       state->roster_size == static_cast<int32_t>(roster.size()) &&
                       state->roster_hash == roster_hash;
    mismatched += match ? 0 : 1;
    prediction_sum += service.Predict(m);
    limit_sum += service.LimitSum(m);
  }
  ++*queries;
  const auto cell_state = control.CellQuery(&error);
  if (!cell_state) {
    return -1;
  }
  *cell_match = cell_state->num_machines == cell.num_machines() &&
                cell_state->min_last_tick == last && cell_state->max_last_tick == last &&
                BitsEqual(cell_state->prediction_sum, prediction_sum) &&
                BitsEqual(cell_state->limit_sum, limit_sum);
  return mismatched;
}

struct Pass {
  double connect_s = 0.0;
  crf::LoadGenReport loadgen;
  double replay_s = 0.0;
  std::vector<ProbeResult> probes;
  int mismatched = -1;
  // Traced only: metrics snapshots at the end of the idle phase and after
  // ingest.
  std::string idle_snapshot;
  std::string loaded_snapshot;
};

bool RunPass(const crf::CellTrace& cell, const crf::PredictorSpec& spec, uint64_t seed,
             bool traced, bool verify, crf::ThreadPool& pool, Report& report, Pass& pass) {
  const auto start = Clock::now();
  crf::ReplayOptions server_options;
  server_options.parallel = false;  // parallelism comes from the connections
  server_options.latency_sample_period = traced ? 64 : 0;
  crf::StreamReplayer replayer(cell, spec, server_options);
  crf::OvercommitServer server(replayer, crf::NetServerOptions{});
  std::string error;
  if (!server.Start(&error)) {
    report.Check(false, "server start: " + error);
    return false;
  }
  // Declared after the server so they close before it stops.
  crf::NetClient prober;
  crf::NetClient control;
  if (!prober.Connect("127.0.0.1", server.port(), &error) ||
      !control.Connect("127.0.0.1", server.port(), &error)) {
    report.Check(false, "connect: " + error);
    return false;
  }
  pass.connect_s = SecondsSince(start);

  std::atomic<int> phase{traced ? kIdle : kLoaded};
  std::thread prober_thread(RunProber, std::ref(prober),
                            ProbeSchedule(kProbeRate, cell.num_machines(), seed ^ kProbeTag),
                            std::cref(phase), std::ref(pass.probes));
  int64_t requests = 0;
  int64_t failed_requests = 0;
  if (traced) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kIdleSeconds));
    const auto snapshot = control.MetricsSnapshot(&error);
    pass.idle_snapshot = snapshot ? snapshot->json : "";
    ++requests;
    failed_requests += snapshot ? 0 : 1;
  }
  phase.store(kLoaded, std::memory_order_release);
  crf::LoadGenOptions options;
  options.port = server.port();
  options.client_threads = kIngestConnections;
  options.batch_ticks = kBatchTicks;
  options.verify = false;  // verified below, after the prober stops
  options.send_shutdown = false;
  const bool ingested = crf::RunLoadGen(cell, spec, options, &pass.loadgen);
  phase.store(kDone, std::memory_order_release);
  prober_thread.join();
  if (traced) {
    const auto snapshot = control.MetricsSnapshot(&error);
    pass.loaded_snapshot = snapshot ? snapshot->json : "";
    ++requests;
    failed_requests += snapshot ? 0 : 1;
  }
  for (const crf::LoadGenOpLatency& op : pass.loadgen.ops) {
    requests += op.count;
  }
  for (const ProbeResult& probe : pass.probes) {
    ++requests;
    failed_requests += probe.ok ? 0 : 1;
  }
  report.Requests(requests, failed_requests);
  if (!ingested) {
    report.Check(false, "loadgen: " + pass.loadgen.error);
    return false;
  }
  if (!verify) {
    return true;
  }

  const auto replay_start = Clock::now();
  crf::ReplayOptions reference_options;
  reference_options.pool = &pool;
  reference_options.latency_sample_period = 0;
  crf::StreamReplayer reference(cell, spec, reference_options);
  reference.AdvanceToEnd();
  pass.replay_s = SecondsSince(replay_start);

  int64_t queries = 0;
  bool cell_match = false;
  pass.mismatched = CountMismatches(control, cell, reference.service(), &cell_match, &queries);
  report.Requests(queries, pass.mismatched < 0 ? 1 : 0);
  const bool identical = pass.mismatched == 0 && cell_match;
  report.Check(identical, "server end state bit-identical to the in-process replay (" +
                              std::to_string(pass.mismatched) + " machines differ)");
  const bool complete = pass.loadgen.events_sent == reference.Metrics().TotalEvents();
  report.Check(complete, "events ingested over the wire equal events replayed");
  return identical && complete;
}

// p50 (optional) and p99 of a log2-ns histogram, scaled to `unit`.
void AddHistogram(Report& report, const std::string& prefix,
                  const std::vector<Log2Bucket>& buckets, bool with_p50, double scale,
                  const std::string& unit, const std::string& note) {
  const int64_t n = HistogramCount(buckets);
  if (with_p50) {
    report.Add(prefix + "_p50_" + unit, HistogramQuantile(buckets, 0.5) * scale, unit, note, n);
  }
  report.AddP99(prefix + "_p99_" + unit, HistogramQuantile(buckets, 0.99) * scale, n, unit, note);
}

}  // namespace

void RunServeLoopback(const RunConfig& config, bool traced, Report& report) {
  crf::ThreadPool pool(4);
  const crf::PredictorSpec spec = *crf::ParsePredictorSpec("max(n-sigma:3,rc-like:80)");
  crf::CellProfile profile = crf::SimCellProfile('a');
  profile.num_machines = kMachines;
  crf::GeneratorOptions generator;
  generator.num_intervals = crf::kIntervalsPerWeek;
  generator.pool = &pool;

  std::vector<double> generate_s;
  crf::CellTrace cell;
  for (int i = 0; i < config.setup_repeats; ++i) {
    const auto start = Clock::now();
    cell = crf::GenerateCellTrace(profile, generator, crf::Rng(config.seed).Fork(kTraceTag));
    cell.FilterToServingTasks();
    generate_s.push_back(SecondsSince(start));
  }

  std::vector<Pass> passes;
  RepeatFor(config.seconds, config.min_passes, [&] {
    Pass& pass = passes.emplace_back();
    const bool first = passes.size() == 1;
    if (!RunPass(cell, spec, config.seed, traced, /*verify=*/first, pool, report, pass)) {
      return false;
    }
    std::printf("pass %zu: ingest %.6g events/s\n", passes.size() - 1,
                pass.loadgen.events_per_sec);
    return true;
  });
  if (passes.empty() || report.failed() > 0) {
    return;
  }

  std::vector<double> connect_s, ingest_rate;
  for (const Pass& pass : passes) {
    connect_s.push_back(pass.connect_s);
    ingest_rate.push_back(pass.loadgen.events_per_sec);
  }
  report.Add("setup_s", Median(generate_s) + Median(connect_s), "s",
             "trace generation + server start and connect (medians)");
  report.Add("throughput_per_s", Median(ingest_rate), "1/s",
             "ingest events/s over loopback: closed loop, 2 connections, 256-tick batches, "
             "beside an open-loop admission prober at 2000/s");
  if (!traced) {
    return;
  }

  // Per-layer numbers, from the (single) traced pass.
  const Pass& pass = passes.front();
  report.Add("trace.generate_s", Median(generate_s), "s",
             "GenerateCellTrace + FilterToServingTasks, 512 machines x 1 week");
  report.Add("serve.replay_s", pass.replay_s, "s",
             "StreamReplayer construction + AdvanceToEnd on a 4-thread pool");
  AddHistogram(report, "serve.predict",
               ParseLog2Histogram(pass.loaded_snapshot, "", "predict_latency_log2_ns"), true,
               1.0, "ns", "server replayer's Observe+Predict, sampled every 64 ticks per shard");
  std::vector<double> admission_loaded_ns, admission_idle_ns, late_ns;
  for (const ProbeResult& probe : pass.probes) {
    (probe.phase == kIdle ? admission_idle_ns : admission_loaded_ns).push_back(probe.latency_ns);
    late_ns.push_back(probe.late_ns);
  }
  for (const crf::LoadGenOpLatency& op : pass.loadgen.ops) {
    if (op.op == "ingest-batch") {
      const std::string note = "client-timed ingest batch round trip";
      report.Add("net.ingest_rtt_p50_us", op.p50_ns / 1e3, "us", note, op.count);
      report.AddP99("net.ingest_rtt_p99_us", op.p99_ns / 1e3, op.count, "us", note);
    }
  }
  const std::string ingest_anchor = "\"op\": \"ingest-batch\"";
  const std::string admission_anchor = "\"op\": \"admission-check\"";
  AddHistogram(report, "net.ingest_service",
               ParseLog2Histogram(pass.loaded_snapshot, ingest_anchor, "latency_log2_ns"), true,
               1e-3, "us", "server decode-to-enqueue time of ingest batches");
  const Percentiles loaded = Summarize(admission_loaded_ns);
  const std::string loaded_note =
      "open loop at 2000/s during ingest, timed from each probe's due time";
  report.Add("net.admission_p50_us", loaded.p50 / 1e3, "us", loaded_note, loaded.count);
  report.AddP99("net.admission_p99_us", loaded.p99 / 1e3, loaded.count, "us", loaded_note);
  AddHistogram(report, "net.admission_service",
               SubtractHistogram(
                   ParseLog2Histogram(pass.loaded_snapshot, admission_anchor, "latency_log2_ns"),
                   ParseLog2Histogram(pass.idle_snapshot, admission_anchor, "latency_log2_ns")),
               false, 1e-3, "us", "server decode-to-enqueue time of admission checks during ingest");
  const Percentiles idle = Summarize(admission_idle_ns);
  report.AddP99("net.admission_idle_p99_us", idle.p99 / 1e3, idle.count, "us",
                "open loop at 2000/s before ingest starts");
  const Percentiles late = Summarize(late_ns);
  report.AddP99("net.prober_late_p99_us", late.p99 / 1e3, late.count, "us",
                "how late the prober sent a probe it was free to send");
  report.Add("net.bytes_per_event",
             static_cast<double>(pass.loadgen.bytes_sent) /
                 static_cast<double>(pass.loadgen.events_sent),
             "B", "client bytes sent per ingested event");
  report.Add("serve.events", static_cast<double>(ParseJsonInt(pass.loaded_snapshot, "events")),
             "count", "events the server ingested");
  report.Add("serve.machine_ticks",
             static_cast<double>(ParseJsonInt(pass.loaded_snapshot, "ticks")), "count",
             "machine ticks the server ingested");
  report.Add("net.verify_mismatched_machines", pass.mismatched, "count",
             "machines whose served state differs from the reference replay");
}

}  // namespace perfbench
