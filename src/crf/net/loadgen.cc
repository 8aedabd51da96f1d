#include "crf/net/loadgen.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>

#include "crf/core/machine_roster.h"
#include "crf/net/client.h"
#include "crf/util/byte_io.h"

namespace crf {
namespace {

// Latency samples one client thread collects, one vector per op of
// interest (ingest dominates; the others are sampled per machine).
struct ThreadSamples {
  std::vector<double> ingest_ns;
  std::vector<double> admission_ns;
  uint64_t events = 0;
  uint64_t ticks = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  std::string error;
};

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t rank = std::min(values.size() - 1,
                               static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

LoadGenOpLatency Summarize(const char* op, std::vector<double>& samples) {
  LoadGenOpLatency row;
  row.op = op;
  row.count = static_cast<int64_t>(samples.size());
  row.p50_ns = Percentile(samples, 0.50);
  row.p99_ns = Percentile(samples, 0.99);
  row.p999_ns = Percentile(samples, 0.999);
  return row;
}

bool BitsEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

bool RunLoadGen(const CellTrace& cell, const PredictorSpec& spec,
                const LoadGenOptions& options, LoadGenReport* report) {
  *report = LoadGenReport{};
  const auto fail = [report](const std::string& message) {
    report->error = message;
    return false;
  };
  if (options.client_threads < 1) {
    return fail("client_threads must be >= 1");
  }
  if (options.batch_ticks < 1) {
    return fail("batch_ticks must be >= 1");
  }

  // Handshake on a control connection: learn the server's geometry and
  // cross-check it against the trace and spec we are about to stream.
  NetClient control;
  std::string error;
  if (!control.Connect(options.host, options.port, &error)) {
    return fail(error);
  }
  HelloRequest hello_request;
  hello_request.client_name = "crf-loadgen";
  const auto hello = control.Hello(hello_request, &error);
  if (!hello) {
    return fail("hello: " + error);
  }
  if (hello->trace_name != cell.name) {
    return fail("server trace \"" + hello->trace_name + "\" does not match local trace \"" +
                cell.name + "\"");
  }
  if (hello->spec_name != spec.Name()) {
    return fail("server predictor \"" + hello->spec_name + "\" does not match \"" +
                spec.Name() + "\"");
  }
  if (hello->num_machines != cell.num_machines() ||
      hello->num_intervals != cell.num_intervals) {
    return fail("server geometry mismatch (machines " + std::to_string(hello->num_machines) +
                "/" + std::to_string(cell.num_machines()) + ", intervals " +
                std::to_string(hello->num_intervals) + "/" +
                std::to_string(cell.num_intervals) + ")");
  }
  const int num_shards = hello->num_shards;
  const Interval from = hello->next_tick;
  const Interval until = options.until < 0 ? cell.num_intervals : options.until;
  if (until <= from || until > cell.num_intervals) {
    return fail("nothing to stream: server is at tick " + std::to_string(from) +
                ", requested until " + std::to_string(until));
  }

  // The server's shard map: contiguous blocks of ceil(M/S) machines.
  const int num_machines = cell.num_machines();
  const int block = std::max((num_machines + num_shards - 1) / num_shards, 1);

  const MachineTaskColumns cols(cell);
  const int threads = std::min(options.client_threads, num_shards);
  std::vector<ThreadSamples> samples(threads);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int k = 0; k < threads; ++k) {
      workers.emplace_back([&, k] {
        ThreadSamples& mine = samples[k];
        NetClient client;
        std::string thread_error;
        if (!client.Connect(options.host, options.port, &thread_error)) {
          mine.error = thread_error;
          return;
        }
        IngestBatchRequest request;
        AdmissionCheckRequest admission;
        admission.task_limit = 0.25;
        MachineRoster walk;
        // Thread k owns shards k, k+threads, k+2*threads, ... — disjoint
        // shard sets, so server-side shard locks never contend.
        for (int s = k; s < num_shards; s += threads) {
          const int begin = std::min(s * block, num_machines);
          const int end = std::min((s + 1) * block, num_machines);
          for (int m = begin; m < end; ++m) {
            walk.StartTraceWalk(cols, cell.machine_tasks(m), from);
            for (Interval t = from; t < until;) {
              const Interval stop =
                  std::min<Interval>(t + options.batch_ticks, until);
              request.machine = m;
              request.from_tick = t;
              request.until_tick = stop;
              request.window_until = until;
              request.events.clear();
              for (Interval tau = t; tau < stop; ++tau) {
                walk.AdvanceTrace(cols, tau, m, &request.events);
              }
              const auto b0 = std::chrono::steady_clock::now();
              const auto response = client.IngestBatch(request, &thread_error);
              const auto b1 = std::chrono::steady_clock::now();
              if (!response) {
                mine.error = "ingest machine " + std::to_string(m) + ": " + thread_error;
                return;
              }
              mine.ingest_ns.push_back(static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(b1 - b0).count()));
              mine.events += request.events.size();
              mine.ticks += static_cast<uint64_t>(stop - t);
              t = stop;
            }
            // One admission probe per finished machine exercises the query
            // path under load.
            admission.machine = m;
            const auto a0 = std::chrono::steady_clock::now();
            const auto verdict = client.AdmissionCheck(admission, &thread_error);
            const auto a1 = std::chrono::steady_clock::now();
            if (!verdict) {
              mine.error = "admission machine " + std::to_string(m) + ": " + thread_error;
              return;
            }
            mine.admission_ns.push_back(static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(a1 - a0).count()));
          }
        }
        mine.bytes_sent = client.bytes_sent();
        mine.bytes_received = client.bytes_received();
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  report->elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();

  std::vector<double> ingest_ns;
  std::vector<double> admission_ns;
  for (ThreadSamples& mine : samples) {
    if (!mine.error.empty() && report->error.empty()) {
      report->error = mine.error;
    }
    report->events_sent += mine.events;
    report->ticks_sent += mine.ticks;
    report->bytes_sent += mine.bytes_sent;
    report->bytes_received += mine.bytes_received;
    ingest_ns.insert(ingest_ns.end(), mine.ingest_ns.begin(), mine.ingest_ns.end());
    admission_ns.insert(admission_ns.end(), mine.admission_ns.begin(),
                        mine.admission_ns.end());
  }
  if (!report->error.empty()) {
    return false;
  }
  report->events_per_sec = report->elapsed_seconds > 0.0
                               ? static_cast<double>(report->events_sent) /
                                     report->elapsed_seconds
                               : 0.0;
  report->ops.push_back(Summarize("ingest-batch", ingest_ns));
  report->ops.push_back(Summarize("admission-check", admission_ns));

  // Differential verification: replay the same window in-process and
  // bit-compare every machine's served state over machine-query, then the
  // ascending-machine cell sums over cell-query.
  if (options.verify) {
    report->verify_ran = true;
    StreamReplayer reference(cell, spec, options.verify_options);
    if (from > 0) {
      reference.Advance(from);
    }
    reference.Advance(until);
    const OvercommitService& service = reference.service();

    std::vector<double> query_ns;
    query_ns.reserve(num_machines);
    MachineQueryRequest query;
    int mismatched = 0;
    for (int m = 0; m < num_machines; ++m) {
      query.machine = m;
      const auto q0 = std::chrono::steady_clock::now();
      const auto state = control.MachineQuery(query, &error);
      const auto q1 = std::chrono::steady_clock::now();
      if (!state) {
        return fail("machine-query " + std::to_string(m) + ": " + error);
      }
      query_ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(q1 - q0).count()));
      const std::span<const int32_t> roster = service.Roster(m);
      const uint64_t roster_hash = Fnv1a64(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(roster.data()), roster.size() * sizeof(int32_t)));
      const bool match = state->last_tick == until - 1 &&
                         BitsEqual(state->prediction, service.Predict(m)) &&
                         BitsEqual(state->limit_sum, service.LimitSum(m)) &&
                         state->roster_size == static_cast<int32_t>(roster.size()) &&
                         state->roster_hash == roster_hash;
      if (!match) {
        ++mismatched;
      }
    }
    report->ops.push_back(Summarize("machine-query", query_ns));
    report->mismatched_machines = mismatched;

    const auto cell_state = control.CellQuery(&error);
    if (!cell_state) {
      return fail("cell-query: " + error);
    }
    double prediction_sum = 0.0;
    double limit_sum = 0.0;
    for (int m = 0; m < num_machines; ++m) {
      prediction_sum += service.Predict(m);
      limit_sum += service.LimitSum(m);
    }
    const bool cell_match = cell_state->num_machines == num_machines &&
                            cell_state->min_last_tick == until - 1 &&
                            cell_state->max_last_tick == until - 1 &&
                            BitsEqual(cell_state->prediction_sum, prediction_sum) &&
                            BitsEqual(cell_state->limit_sum, limit_sum);
    report->verified = mismatched == 0 && cell_match;
  }

  // Exercise the metrics snapshot (and sanity-check it parses as an object).
  const auto metrics = control.MetricsSnapshot(&error);
  if (!metrics) {
    return fail("metrics-snapshot: " + error);
  }
  if (metrics->json.empty() || metrics->json.front() != '{') {
    return fail("metrics snapshot is not a JSON object");
  }

  if (options.send_shutdown) {
    ShutdownRequest request;
    const auto down = control.Shutdown(request, &error);
    if (!down) {
      return fail("shutdown: " + error);
    }
    report->shutdown_sent = true;
    report->sealed = down->sealed;
    report->checkpoint_path = down->checkpoint_path;
    report->final_tick = down->next_tick;
  } else {
    report->final_tick = until;
  }
  return report->error.empty();
}

}  // namespace crf
