// crf — command-line driver for the overcommit simulator.
//
// Subcommands:
//   crf generate --cell=a --days=7 [--machines=N] [--rich] [--seed=S] --out=FILE
//                [--binary] [--stream] [--probes=K] [--placement-shards=S]
//                [--rebalance-interval=R] [--threads=T]
//       Synthesize a cell trace and save it (text by default, --binary for
//       the zero-copy arena format; loaders auto-detect either). --stream
//       generates straight into the binary file machine block by machine
//       block, so cells far larger than memory can be emitted; the streamed
//       file holds the same cell with tasks renumbered machine-major.
//   crf info --trace=FILE [--mmap]
//       Print a trace's workload statistics. --mmap (binary traces only, any
//       subcommand that reads --trace/--replay) maps the arena zero-copy
//       instead of heap-loading it; `info` then reports page residency.
//   crf convert --trace=FILE --out=FILE [--binary]
//       Re-encode a trace between the text and binary formats.
//   crf simulate (--trace=FILE | --cell=a --days=7 [--machines=N] [--seed=S])
//                [--predictor=SPEC] [--horizon-hours=24] [--all-classes]
//       Run the trace-driven simulator; prints violation/savings metrics.
//   crf cluster --cell=production_3 [--machines=N] [--days=14]
//               [--predictor=SPEC] [--packing=best-fit] [--seed=S]
//       Run the closed-loop Borg-like simulation; prints group metrics.
//   crf serve --replay=FILE [--predictor=SPEC] [--shards=16] [--no-parallel]
//             [--checkpoint-out=FILE --checkpoint-at=TICK [--stop-after-checkpoint]]
//             [--resume=FILE] [--metrics-out=FILE]
//       Stream the trace through the online serve layer. Results on stdout
//       are deterministic (bit-identical at any thread count); throughput
//       goes to stderr. SIGINT/SIGTERM stop the replay at the next day
//       boundary and seal a resumable checkpoint to --checkpoint-out.
//   crf serve --listen=HOST:PORT ... [--port-file=FILE] [--max-conns=N]
//       Instead of replaying locally, expose the serve tier over TCP
//       (CRFNET1 wire protocol, DESIGN.md §10). --checkpoint-out becomes the
//       shutdown op's seal target; once clients have streamed the whole
//       trace, the same deterministic results are printed on exit.
//   crf loadgen --connect=HOST:PORT (--trace=FILE | --cell=a ...)
//               [--clients=K] [--batch-ticks=N] [--until=T] [--predictor=SPEC]
//               [--shards=16] [--no-verify] [--no-shutdown]
//       Replay a trace over the wire against `crf serve --listen` from K
//       client connections; reports events/s and per-op p50/p99/p999, then
//       verifies the server's end state bit-for-bit against an in-process
//       replay and (by default) sends the shutdown op.
//   crf checkpoint --file=FILE
//       Inspect a serve checkpoint's header.
//
// Predictor SPEC grammar (crf/core/spec_parser.h):
//   limit-sum | borg-default[:phi] | rc-like[:pct] | n-sigma[:n]
//   | autopilot[:pct[:margin]] | max(SPEC,SPEC,...)
//
// Cells: a..h (trace cells) and production_1..production_5.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <optional>
#include <string>

#include "crf/cluster/ab_experiment.h"
#include "crf/core/spec_parser.h"
#include "crf/net/loadgen.h"
#include "crf/net/server.h"
#include "crf/serve/checkpoint.h"
#include "crf/serve/replay.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_io.h"
#include "crf/trace/trace_stats.h"
#include "crf/util/arg_parse.h"
#include "crf/util/atomic_file.h"
#include "crf/util/table.h"

namespace crf {
namespace {

// --key=value / --flag argument map with typed accessors.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        ok_ = false;
        error_ = "unexpected argument: " + arg;
        return;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  std::optional<std::string> Get(const std::string& key) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt : std::optional<std::string>(it->second);
  }
  std::string GetOr(const std::string& key, const std::string& fallback) {
    return Get(key).value_or(fallback);
  }
  double GetDouble(const std::string& key, double fallback) {
    const auto value = Get(key);
    return value.has_value() ? std::strtod(value->c_str(), nullptr) : fallback;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) {
    const auto value = Get(key);
    return value.has_value() ? std::strtoll(value->c_str(), nullptr, 10) : fallback;
  }
  bool GetBool(const std::string& key) { return Get(key).value_or("") == "true"; }

  // Any flag that was passed but never consumed is a typo.
  std::optional<std::string> UnknownFlag() const {
    for (const auto& [key, value] : values_) {
      if (consumed_.find(key) == consumed_.end()) {
        return key;
      }
    }
    return std::nullopt;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  bool ok_ = true;
  std::string error_;
};

// Accepts exactly a..h, cell_a..cell_h and production_1..production_5.
std::optional<CellProfile> ResolveProfile(const std::string& name) {
  const std::string letter = name.rfind("cell_", 0) == 0 ? name.substr(5) : name;
  if (letter.size() == 1 && letter[0] >= 'a' && letter[0] <= 'h') {
    return SimCellProfile(letter[0]);
  }
  if (name.size() == 12 && name.rfind("production_", 0) == 0 && name[11] >= '1' &&
      name[11] <= '5') {
    return ProductionCellProfile(name[11] - '0');
  }
  return std::nullopt;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "crf: %s\n", message.c_str());
  return 2;
}

// SIGINT/SIGTERM request a graceful stop: the replay loop breaks at its next
// chunk boundary (sealing a checkpoint if --checkpoint-out is set) and a
// network server seals-and-stops through OvercommitServer::Wait.
std::atomic<bool> g_stop{false};

void InstallStopHandlers() {
  g_stop.store(false);
  std::signal(SIGINT, [](int) { g_stop.store(true); });
  std::signal(SIGTERM, [](int) { g_stop.store(true); });
}

// Strict flag accessor: an absent flag yields `fallback`; a present one must
// parse in full as an integer in [min_value, max_value] (arg_parse.h
// diagnostics name the flag and the offending text).
bool GetIntFlag(Args& args, const std::string& key, int64_t fallback, int64_t min_value,
                int64_t max_value, int64_t* value, std::string* error) {
  const auto text = args.Get(key);
  if (!text.has_value()) {
    *value = fallback;
    return true;
  }
  return ParseIntFlag(key, *text, min_value, max_value, value, error);
}

TraceLoadOptions LoadOptionsFromArgs(Args& args) {
  TraceLoadOptions load;
  if (args.GetBool("mmap")) {
    load.mode = TraceLoadMode::kMapped;
  }
  return load;
}

// --threads=N: total worker threads for generation / simulation / replay.
// 0 (default) or 1 runs serially; results never depend on the value. On a
// malformed value, returns nullptr with `error` set.
std::unique_ptr<ThreadPool> PoolFromArgs(Args& args, std::string& error) {
  int64_t threads = 0;
  if (!GetIntFlag(args, "threads", 0, 0, 1024, &threads, &error)) {
    return nullptr;
  }
  if (threads > 1) {
    return std::make_unique<ThreadPool>(static_cast<int>(threads));
  }
  return nullptr;
}

// Sharded-placement knobs shared by generate/simulate/serve cell synthesis
// and `crf cluster`. --placement-shards=S > 0 selects the sharded engine
// (part of the cell/run identity, like the seed); --rebalance-interval=R
// sets batches between cross-shard summary refreshes.
bool PlacementArgsInto(Args& args, int& shards, int& rebalance_interval, std::string& error) {
  int64_t parsed_shards = 0;
  int64_t parsed_interval = 0;
  if (!GetIntFlag(args, "placement-shards", 0, 0, 4096, &parsed_shards, &error) ||
      !GetIntFlag(args, "rebalance-interval", 8, 1, 1 << 20, &parsed_interval, &error)) {
    return false;
  }
  shards = static_cast<int>(parsed_shards);
  rebalance_interval = static_cast<int>(parsed_interval);
  return true;
}

// The cell generate, info, simulate, serve and loadgen synthesize.
struct CellSynthesis {
  CellProfile profile;
  GeneratorOptions options;  // options.pool points at `pool`
  int64_t seed = 42;  // any 64-bit value; Rng takes its bits
  std::unique_ptr<ThreadPool> pool;
};

// Reads --cell, --machines, --days, --rich, --probes, --seed, the placement
// knobs and --threads, strictly: a bad value fails naming its flag. --days
// must give at least one interval; its bound keeps the count from overflow.
std::optional<CellSynthesis> CellFromArgs(Args& args, std::string& error) {
  const std::string cell_name = args.GetOr("cell", "a");
  const auto profile = ResolveProfile(cell_name);
  if (!profile.has_value()) {
    error = "--cell value \"" + cell_name + "\" is not a cell (use a..h or production_1..5)";
    return std::nullopt;
  }
  CellSynthesis synthesis{*profile, GeneratorOptions{}, 42, nullptr};
  const std::string days_text = args.GetOr("days", "7");
  int64_t machines = 0;
  double days = 0.0;
  int64_t probes = 0;
  if (!GetIntFlag(args, "machines", profile->num_machines, 1, 1000000, &machines, &error) ||
      !ParseDoubleFlag("days", days_text, 0.0, 3650.0, &days, &error) ||
      !GetIntFlag(args, "probes", 0, 0, 1 << 20, &probes, &error) ||
      !GetIntFlag(args, "seed", 42, INT64_MIN, INT64_MAX, &synthesis.seed, &error)) {
    return std::nullopt;
  }
  const int64_t intervals = static_cast<int64_t>(days * kIntervalsPerDay);
  if (intervals < 1) {
    error = "--days value \"" + days_text + "\" is shorter than one 5-minute interval";
    return std::nullopt;
  }
  synthesis.profile.num_machines = static_cast<int>(machines);
  synthesis.options.num_intervals = static_cast<Interval>(intervals);
  synthesis.options.rich_stats = args.GetBool("rich");
  synthesis.options.placement_probes = static_cast<int>(probes);
  if (!PlacementArgsInto(args, synthesis.options.placement_shards,
                         synthesis.options.placement_rebalance_interval, error)) {
    return std::nullopt;
  }
  synthesis.pool = PoolFromArgs(args, error);
  synthesis.options.pool = synthesis.pool.get();
  if (!error.empty()) {
    return std::nullopt;
  }
  return synthesis;
}

std::optional<CellTrace> BuildOrLoadCell(Args& args, std::string& error) {
  const TraceLoadOptions load = LoadOptionsFromArgs(args);
  const auto trace_path = args.Get("trace");
  if (trace_path.has_value()) {
    std::string load_error;
    auto cell = LoadCellTrace(*trace_path, load, &load_error);
    if (!cell.has_value()) {
      error = "cannot load trace " + *trace_path +
              (load_error.empty() ? "" : ": " + load_error);
    }
    return cell;
  }
  auto synthesis = CellFromArgs(args, error);
  if (!synthesis.has_value()) {
    return std::nullopt;
  }
  return GenerateCellTrace(synthesis->profile, synthesis->options, Rng(synthesis->seed));
}

int CmdGenerate(Args& args) {
  const auto out = args.Get("out");
  if (!out.has_value()) {
    return Fail("generate requires --out=FILE");
  }
  const bool binary = args.GetBool("binary");
  const bool stream = args.GetBool("stream");
  // Streaming generation writes the binary file directly; it never holds
  // the sealed cell, so it cannot start from --trace or emit text.
  if (stream && args.Get("trace").has_value()) {
    return Fail("--stream generates a fresh cell; it cannot re-save --trace=FILE");
  }
  std::string error;
  std::optional<CellSynthesis> synthesis;
  std::optional<CellTrace> cell;
  if (stream) {
    synthesis = CellFromArgs(args, error);
  } else {
    cell = BuildOrLoadCell(args, error);
  }
  if (!error.empty()) {
    return Fail(error);
  }
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }
  if (stream) {
    StreamedTraceInfo info;
    if (!GenerateCellTraceToFile(synthesis->profile, synthesis->options, Rng(synthesis->seed),
                                 *out, &error, &info)) {
      return Fail(error);
    }
    std::printf("wrote %s (binary, streamed): %d machines, %lld tasks, %d intervals,"
                " %llu bytes\n",
                out->c_str(), synthesis->profile.num_machines,
                static_cast<long long>(info.num_tasks), synthesis->options.num_intervals,
                static_cast<unsigned long long>(info.file_bytes));
    std::fprintf(stderr, "crf: placement %.0f ms (%lld attempts, %.0f placements/s)\n",
                 info.placement_ms, static_cast<long long>(info.placement_attempts),
                 info.placement_ms > 0.0 ? info.placement_attempts * 1000.0 / info.placement_ms
                                         : 0.0);
    return 0;
  }
  if (binary) {
    SaveCellTraceBinary(*cell, *out);
  } else {
    SaveCellTrace(*cell, *out);
  }
  std::printf("wrote %s (%s): %d machines, %d tasks, %d intervals\n", out->c_str(),
              binary ? "binary" : "text", cell->num_machines(), cell->num_tasks(),
              cell->num_intervals);
  return 0;
}

int CmdConvert(Args& args) {
  const auto out = args.Get("out");
  if (!out.has_value()) {
    return Fail("convert requires --out=FILE");
  }
  const auto trace_path = args.Get("trace");
  if (!trace_path.has_value()) {
    return Fail("convert requires --trace=FILE");
  }
  const bool binary = args.GetBool("binary");
  const TraceLoadOptions load = LoadOptionsFromArgs(args);
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }
  std::string load_error;
  const auto cell = LoadCellTrace(*trace_path, load, &load_error);
  if (!cell.has_value()) {
    return Fail("cannot load trace " + *trace_path +
                (load_error.empty() ? "" : ": " + load_error));
  }
  if (binary) {
    SaveCellTraceBinary(*cell, *out);
  } else {
    SaveCellTrace(*cell, *out);
  }
  std::printf("converted %s -> %s (%s): %d machines, %d tasks, %d intervals\n",
              trace_path->c_str(), out->c_str(), binary ? "binary" : "text",
              cell->num_machines(), cell->num_tasks(), cell->num_intervals);
  return 0;
}

int CmdInfo(Args& args) {
  std::string error;
  const auto cell = BuildOrLoadCell(args, error);
  if (!cell.has_value()) {
    return Fail(error);
  }
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }
  const Ecdf runtimes = TaskRuntimeHoursCdf(*cell);
  const Ecdf ratios = UsageToLimitCdf(*cell, 4);
  std::printf("cell %s: %d machines (capacity %.1f), %d tasks, %d intervals\n",
              cell->name.c_str(), cell->num_machines(), cell->TotalCapacity(),
              cell->num_tasks(), cell->num_intervals);
  Table table({"metric", "p50", "p95", "max"});
  table.AddRow("task runtime (hours)",
               {runtimes.Quantile(0.5), runtimes.Quantile(0.95), runtimes.max()});
  table.AddRow("usage/limit", {ratios.Quantile(0.5), ratios.Quantile(0.95), ratios.max()});
  table.Print();
  std::fputs(DescribeTraceLayout(ComputeTraceLayoutStats(*cell)).c_str(), stdout);
  return 0;
}

// Shared by simulate and serve so a streaming run can be diffed against the
// batch engine's output directly.
void PrintSimResultTable(const SimResult& result) {
  const Ecdf violations = result.ViolationRateCdf();
  const Ecdf savings = result.MachineSavingsCdf();
  Table table({"metric", "p50", "p90", "p99", "mean"});
  table.AddRow("per-machine violation rate",
               {violations.Quantile(0.5), violations.Quantile(0.9), violations.Quantile(0.99),
                violations.mean()});
  table.AddRow("per-machine savings", {savings.Quantile(0.5), savings.Quantile(0.9),
                                       savings.Quantile(0.99), savings.mean()});
  table.Print();
  std::printf("cell-level savings (time-mean): %.4f\n", result.MeanCellSavings());
}

int CmdSimulate(Args& args) {
  const std::string spec_text = args.GetOr("predictor", "max(n-sigma:5,rc-like:99)");
  std::string spec_error;
  const auto spec = ParsePredictorSpec(spec_text, &spec_error);
  if (!spec.has_value()) {
    return Fail("bad --predictor spec: " + spec_error);
  }
  SimOptions options;
  options.horizon =
      static_cast<Interval>(args.GetDouble("horizon-hours", 24.0) * kIntervalsPerHour);
  const bool all_classes = args.GetBool("all-classes");

  std::string error;
  auto cell = BuildOrLoadCell(args, error);
  if (!cell.has_value()) {
    return Fail(error);
  }
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }
  if (!all_classes) {
    cell->FilterToServingTasks();
  }

  const SimResult result = SimulateCell(*cell, *spec, options);
  std::printf("cell %s, predictor %s, horizon %gh\n", result.cell_name.c_str(),
              result.predictor_name.c_str(), IntervalsToHours(options.horizon));
  PrintSimResultTable(result);
  return 0;
}

// The deterministic end-of-replay block shared by the local replay path and
// the network server (after clients stream the whole trace): CI diffs these
// lines across resumed, interrupted, and network-fed runs.
int PrintServeResults(StreamReplayer& replayer, const ReplayOptions& options,
                      const std::optional<std::string>& metrics_out) {
  const SimResult result = replayer.Finish();
  const ServeMetrics& metrics = replayer.Metrics();
  std::printf("cell %s, predictor %s, horizon %gh, %d shards\n", result.cell_name.c_str(),
              result.predictor_name.c_str(), IntervalsToHours(options.horizon),
              options.num_shards);
  PrintSimResultTable(result);
  std::printf("events ingested: %llu over %llu machine-ticks\n",
              static_cast<unsigned long long>(metrics.TotalEvents()),
              static_cast<unsigned long long>(metrics.TotalTicks()));
  std::fprintf(stderr, "crf: ingest rate %.0f events/s (%.3fs wall)\n",
               metrics.EventsPerSecond(), metrics.elapsed_seconds());
  if (metrics_out.has_value() && !metrics.WriteJson(*metrics_out)) {
    return Fail("cannot write metrics to " + *metrics_out);
  }
  return 0;
}

// Streaming replay through the serve layer (crf/serve). Deterministic
// results go to stdout — CI diffs a resumed run against an uninterrupted
// one — timing-derived throughput goes to stderr. With --listen the replayer
// is instead exposed over TCP (crf/net) and driven by remote clients.
int CmdServe(Args& args) {
  const std::string spec_text = args.GetOr("predictor", "max(n-sigma:5,rc-like:99)");
  std::string spec_error;
  const auto spec = ParsePredictorSpec(spec_text, &spec_error);
  if (!spec.has_value()) {
    return Fail("bad --predictor spec: " + spec_error);
  }

  ReplayOptions options;
  options.horizon =
      static_cast<Interval>(args.GetDouble("horizon-hours", 24.0) * kIntervalsPerHour);
  std::string arg_error;
  int64_t num_shards = 16;
  if (!GetIntFlag(args, "shards", 16, 1, 65536, &num_shards, &arg_error)) {
    return Fail(arg_error);
  }
  options.num_shards = static_cast<int>(num_shards);
  options.parallel = !args.GetBool("no-parallel");
  // --threads also sizes the generation pool when the cell is synthesized
  // below (BuildOrLoadCell reads the same flag).
  const auto pool = PoolFromArgs(args, arg_error);
  if (!arg_error.empty()) {
    return Fail(arg_error);
  }
  options.pool = pool.get();
  const bool all_classes = args.GetBool("all-classes");
  const auto resume_path = args.Get("resume");
  const auto checkpoint_out = args.Get("checkpoint-out");
  const int64_t checkpoint_at = args.GetInt("checkpoint-at", -1);
  const bool stop_after_checkpoint = args.GetBool("stop-after-checkpoint");
  const auto metrics_out = args.Get("metrics-out");
  const auto listen_text = args.Get("listen");
  HostPort listen;
  if (listen_text.has_value() &&
      !ParseHostPortFlag("listen", *listen_text, &listen, &arg_error)) {
    return Fail(arg_error);
  }
  const auto port_file = args.Get("port-file");
  int64_t max_conns = 64;
  if (!GetIntFlag(args, "max-conns", 64, 1, 65536, &max_conns, &arg_error)) {
    return Fail(arg_error);
  }
  if (!listen_text.has_value() && (port_file.has_value() || args.Get("max-conns"))) {
    return Fail("--port-file/--max-conns require --listen=HOST:PORT");
  }

  std::string error;
  std::optional<CellTrace> cell;
  if (const auto replay_path = args.Get("replay")) {
    std::string load_error;
    cell = LoadCellTrace(*replay_path, LoadOptionsFromArgs(args), &load_error);
    if (!cell.has_value()) {
      return Fail("cannot load trace " + *replay_path +
                  (load_error.empty() ? "" : ": " + load_error));
    }
  } else {
    cell = BuildOrLoadCell(args, error);
    if (!cell.has_value()) {
      return Fail(error);
    }
  }
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }
  if (!all_classes) {
    if (cell->is_mapped()) {
      std::fprintf(stderr,
                   "crf: note: class filtering reseals the trace on the heap; use"
                   " --all-classes to keep the mmap zero-copy path\n");
    }
    cell->FilterToServingTasks();
  }

  std::unique_ptr<StreamReplayer> replayer;
  if (resume_path.has_value()) {
    // The checkpoint carries the predictor spec; --predictor is ignored.
    replayer = LoadCheckpoint(*resume_path, *cell, options, &error);
    if (replayer == nullptr) {
      return Fail("cannot resume: " + error);
    }
  } else {
    replayer = std::make_unique<StreamReplayer>(*cell, *spec, options);
  }

  if (listen_text.has_value()) {
    if (checkpoint_at >= 0 || stop_after_checkpoint) {
      return Fail("--checkpoint-at/--stop-after-checkpoint are not valid with --listen");
    }
    NetServerOptions net_options;
    net_options.host = listen.host;
    net_options.port = listen.port;
    net_options.max_connections = static_cast<int>(max_conns);
    net_options.checkpoint_out = checkpoint_out.value_or("");
    OvercommitServer server(*replayer, net_options);
    if (!server.Start(&error)) {
      return Fail(error);
    }
    // Atomic, so a script polling for a non-empty file never reads a partial
    // port number.
    if (port_file.has_value() &&
        !WriteFileAtomic(*port_file, std::to_string(server.port()) + "\n", &error)) {
      return Fail("cannot write --port-file: " + error);
    }
    std::fprintf(stderr,
                 "crf: serving %s (%s) on %s:%d, %d shards, next tick %d/%d\n",
                 cell->name.c_str(), replayer->spec().Name().c_str(),
                 net_options.host.c_str(), server.port(), options.num_shards,
                 replayer->next_tick(), cell->num_intervals);
    InstallStopHandlers();
    server.Wait(&g_stop);
    if (server.sealed()) {
      std::printf("checkpoint written to %s at tick %d/%d\n", server.sealed_path().c_str(),
                  server.sealed_tick(), cell->num_intervals);
    }
    if (replayer->Done()) {
      return PrintServeResults(*replayer, options, metrics_out);
    }
    std::fprintf(stderr, "crf: stopped at tick %d/%d\n", replayer->next_tick(),
                 cell->num_intervals);
    if (metrics_out.has_value() && !replayer->Metrics().WriteJson(*metrics_out)) {
      return Fail("cannot write metrics to " + *metrics_out);
    }
    return 0;
  }

  if (checkpoint_out.has_value()) {
    const Interval cut = checkpoint_at >= 0 ? static_cast<Interval>(checkpoint_at)
                                            : cell->num_intervals / 2;
    if (cut < replayer->next_tick() || cut > cell->num_intervals) {
      return Fail("--checkpoint-at=" + std::to_string(cut) + " is outside [" +
                  std::to_string(replayer->next_tick()) + ", " +
                  std::to_string(cell->num_intervals) + "]");
    }
    replayer->Advance(cut);
    if (!SaveCheckpoint(*replayer, *checkpoint_out, &error)) {
      return Fail(error);
    }
    std::printf("checkpoint written to %s at tick %d/%d\n", checkpoint_out->c_str(),
                replayer->next_tick(), cell->num_intervals);
    if (stop_after_checkpoint) {
      return 0;
    }
  } else if (checkpoint_at >= 0 || stop_after_checkpoint) {
    return Fail("--checkpoint-at/--stop-after-checkpoint require --checkpoint-out=FILE");
  }

  // Chunked replay (day granularity) so SIGINT/SIGTERM can stop between
  // Advance calls and seal a resumable checkpoint — the same interval-
  // boundary cut the network shutdown op makes. Chunking never affects
  // results (Advance is bit-identical under any call slicing).
  InstallStopHandlers();
  while (!replayer->Done() && !g_stop.load()) {
    replayer->Advance(std::min<Interval>(replayer->next_tick() + kIntervalsPerDay,
                                         cell->num_intervals));
  }
  if (!replayer->Done()) {
    if (checkpoint_out.has_value()) {
      if (!SaveCheckpoint(*replayer, *checkpoint_out, &error)) {
        return Fail(error);
      }
      std::printf("checkpoint written to %s at tick %d/%d\n", checkpoint_out->c_str(),
                  replayer->next_tick(), cell->num_intervals);
    }
    std::fprintf(stderr, "crf: stopped at tick %d/%d%s\n", replayer->next_tick(),
                 cell->num_intervals,
                 checkpoint_out.has_value() ? "" : " (no --checkpoint-out; state discarded)");
    return 0;
  }
  return PrintServeResults(*replayer, options, metrics_out);
}

// Drives `crf serve --listen` over loopback/LAN: K client threads stream
// disjoint shard sets through batched ingest frames, then the server's end
// state is verified bit-for-bit against an in-process replay. The verify
// verdict and event totals on stdout are deterministic; rates and latency
// percentiles are timing-derived.
int CmdLoadgen(Args& args) {
  const auto connect = args.Get("connect");
  if (!connect.has_value()) {
    return Fail("loadgen requires --connect=HOST:PORT");
  }
  std::string arg_error;
  HostPort endpoint;
  if (!ParseHostPortFlag("connect", *connect, &endpoint, &arg_error)) {
    return Fail(arg_error);
  }
  if (endpoint.port == 0) {
    return Fail("--connect requires an explicit port");
  }
  const std::string spec_text = args.GetOr("predictor", "max(n-sigma:5,rc-like:99)");
  std::string spec_error;
  const auto spec = ParsePredictorSpec(spec_text, &spec_error);
  if (!spec.has_value()) {
    return Fail("bad --predictor spec: " + spec_error);
  }

  LoadGenOptions options;
  options.host = endpoint.host;
  options.port = endpoint.port;
  int64_t clients = 4;
  int64_t batch_ticks = 256;
  int64_t until = -1;
  int64_t shards = 16;
  if (!GetIntFlag(args, "clients", 4, 1, 256, &clients, &arg_error) ||
      !GetIntFlag(args, "batch-ticks", 256, 1, 1 << 20, &batch_ticks, &arg_error) ||
      !GetIntFlag(args, "until", -1, -1, 1 << 30, &until, &arg_error) ||
      !GetIntFlag(args, "shards", 16, 1, 65536, &shards, &arg_error)) {
    return Fail(arg_error);
  }
  options.client_threads = static_cast<int>(clients);
  options.batch_ticks = static_cast<int>(batch_ticks);
  options.until = static_cast<Interval>(until);
  options.verify = !args.GetBool("no-verify");
  options.send_shutdown = !args.GetBool("no-shutdown");
  // The verification replay must mirror the server's replay options:
  // --shards fixes the cell-series rounding, --horizon-hours the oracle.
  options.verify_options.horizon =
      static_cast<Interval>(args.GetDouble("horizon-hours", 24.0) * kIntervalsPerHour);
  options.verify_options.num_shards = static_cast<int>(shards);
  options.verify_options.parallel = false;
  const bool all_classes = args.GetBool("all-classes");

  std::string error;
  auto cell = BuildOrLoadCell(args, error);
  if (!cell.has_value()) {
    return Fail(error);
  }
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }
  if (!all_classes) {
    cell->FilterToServingTasks();
  }

  LoadGenReport report;
  if (!RunLoadGen(*cell, *spec, options, &report)) {
    return Fail("loadgen: " + report.error);
  }
  std::fprintf(stderr,
               "crf: %llu events in %.3fs (%.0f events/s) over %d connections,"
               " %llu bytes out / %llu bytes in\n",
               static_cast<unsigned long long>(report.events_sent), report.elapsed_seconds,
               report.events_per_sec, options.client_threads,
               static_cast<unsigned long long>(report.bytes_sent),
               static_cast<unsigned long long>(report.bytes_received));
  Table table({"op", "count", "p50_us", "p99_us", "p999_us"});
  for (const LoadGenOpLatency& op : report.ops) {
    table.AddRow(op.op, {static_cast<double>(op.count), op.p50_ns / 1000.0,
                         op.p99_ns / 1000.0, op.p999_ns / 1000.0});
  }
  table.Print();
  std::printf("streamed %llu events over %llu machine-ticks\n",
              static_cast<unsigned long long>(report.events_sent),
              static_cast<unsigned long long>(report.ticks_sent));
  if (report.verify_ran) {
    std::printf("verify: %s (%d mismatched machines)\n",
                report.verified ? "bit-identical" : "MISMATCH", report.mismatched_machines);
  }
  if (report.shutdown_sent) {
    if (report.sealed) {
      std::printf("server sealed checkpoint %s at tick %d\n", report.checkpoint_path.c_str(),
                  report.final_tick);
    } else {
      std::printf("server stopped at tick %d (no checkpoint sealed)\n", report.final_tick);
    }
  }
  return report.verify_ran && !report.verified ? 1 : 0;
}

int CmdCheckpoint(Args& args) {
  const auto file = args.Get("file");
  if (!file.has_value()) {
    return Fail("checkpoint requires --file=FILE");
  }
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }
  CheckpointInfo info;
  std::string error;
  if (!ReadCheckpointInfo(*file, &info, &error)) {
    return Fail(error);
  }
  std::printf("checkpoint %s (version %u)\n", file->c_str(), info.version);
  std::printf("  trace:    %s (%d machines, %d intervals)\n", info.trace_name.c_str(),
              info.num_machines, info.num_intervals);
  std::printf("  predictor: %s\n", info.spec_name.c_str());
  std::printf("  progress: next tick %d/%d, %d shards\n", info.next_tick, info.num_intervals,
              info.num_shards);
  std::printf("  payload:  %llu bytes\n", static_cast<unsigned long long>(info.payload_bytes));
  return 0;
}

int CmdCluster(Args& args) {
  const std::string spec_text = args.GetOr("predictor", "borg-default:0.9");
  std::string spec_error;
  const auto spec = ParsePredictorSpec(spec_text, &spec_error);
  if (!spec.has_value()) {
    return Fail("bad --predictor spec: " + spec_error);
  }
  const std::string cell_name = args.GetOr("cell", "production_1");
  auto profile = ResolveProfile(cell_name);
  if (!profile.has_value()) {
    return Fail("unknown cell '" + cell_name + "'");
  }
  profile->num_machines = static_cast<int>(args.GetInt("machines", profile->num_machines));

  ClusterSimOptions options;
  options.num_intervals =
      static_cast<Interval>(args.GetDouble("days", 14.0) * kIntervalsPerDay);
  options.warmup = std::min<Interval>(2 * kIntervalsPerDay, options.num_intervals / 4);
  options.predictor = *spec;
  const std::string packing = args.GetOr("packing", "best-fit");
  if (packing == "best-fit") {
    options.packing = PackingPolicy::kBestFit;
  } else if (packing == "worst-fit") {
    options.packing = PackingPolicy::kWorstFit;
  } else if (packing == "random-fit") {
    options.packing = PackingPolicy::kRandomFit;
  } else {
    return Fail("unknown --packing '" + packing + "'");
  }
  std::string arg_error;
  if (!PlacementArgsInto(args, options.placement_shards,
                         options.placement_rebalance_interval, arg_error)) {
    return Fail(arg_error);
  }
  const auto pool = PoolFromArgs(args, arg_error);
  if (!arg_error.empty()) {
    return Fail(arg_error);
  }
  options.pool = pool.get();
  const Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)));
  if (const auto unknown = args.UnknownFlag()) {
    return Fail("unknown flag --" + *unknown);
  }

  const ClusterSimResult result = RunClusterSim(*profile, options, rng);
  const std::vector<ClusterSimResult> results{result};
  const GroupMetrics metrics = ComputeGroupMetrics(result.predictor_name, results);
  std::printf("cell %s, predictor %s, packing %s, %g days (%d machines)\n",
              result.cell_name.c_str(), result.predictor_name.c_str(), packing.c_str(),
              IntervalsToHours(options.num_intervals) / 24.0, profile->num_machines);
  Table table({"metric", "p50", "p90"});
  table.AddRow("alloc/capacity", {metrics.normalized_allocation.Quantile(0.5),
                                  metrics.normalized_allocation.Quantile(0.9)});
  table.AddRow("usage/capacity", {metrics.normalized_workload.Quantile(0.5),
                                  metrics.normalized_workload.Quantile(0.9)});
  table.AddRow("relative savings", {metrics.relative_savings.Quantile(0.5),
                                    metrics.relative_savings.Quantile(0.9)});
  table.AddRow("machine violation rate",
               {metrics.violation_rate.Quantile(0.5), metrics.violation_rate.Quantile(0.9)});
  table.AddRow("severity p999", {metrics.severity_p999.Quantile(0.5),
                                 metrics.severity_p999.Quantile(0.9)});
  table.AddRow("max violation streak", {metrics.max_violation_streak.Quantile(0.5),
                                        metrics.max_violation_streak.Quantile(0.9)});
  table.AddRow("machine p90 latency", {metrics.machine_p90_latency.Quantile(0.5),
                                       metrics.machine_p90_latency.Quantile(0.9)});
  table.Print();
  std::printf("tasks placed %lld, timed out %lld (%lld placement attempts)\n",
              static_cast<long long>(result.tasks_placed),
              static_cast<long long>(result.tasks_timed_out),
              static_cast<long long>(result.placement_attempts));
  return 0;
}

int Usage() {
  std::fputs(
      "usage: crf <generate|info|convert|simulate|cluster|serve|loadgen|checkpoint>"
      " [--flags]\n"
      "  crf generate --cell=a --days=7 --out=FILE [--machines=N] [--rich] [--seed=S]\n"
      "               [--binary] [--stream] [--probes=K] [--placement-shards=S]\n"
      "               [--rebalance-interval=R] [--threads=T]\n"
      "  crf info     (--trace=FILE [--mmap] | --cell=a [--days=7] [--machines=N])\n"
      "  crf convert  --trace=FILE --out=FILE [--binary] [--mmap]\n"
      "  crf simulate (--trace=FILE [--mmap] | --cell=a [--days] [--machines] [--seed])\n"
      "               [--predictor=SPEC] [--horizon-hours=24] [--all-classes]\n"
      "  crf cluster  --cell=production_1 [--machines=N] [--days=14]\n"
      "               [--predictor=SPEC] [--packing=best-fit|worst-fit|random-fit]\n"
      "               [--placement-shards=S] [--rebalance-interval=R] [--threads=T]\n"
      "  crf serve    (--replay=FILE [--mmap] | --cell=a [--days] [--machines] [--seed])\n"
      "               [--predictor=SPEC] [--horizon-hours=24] [--all-classes]\n"
      "               [--shards=16] [--no-parallel] [--threads=T] [--metrics-out=FILE]\n"
      "               [--checkpoint-out=FILE --checkpoint-at=TICK\n"
      "                [--stop-after-checkpoint]] [--resume=FILE]\n"
      "               [--listen=HOST:PORT [--port-file=FILE] [--max-conns=N]]\n"
      "  crf loadgen  --connect=HOST:PORT (--trace=FILE [--mmap] | --cell=a ...)\n"
      "               [--clients=4] [--batch-ticks=256] [--until=T] [--shards=16]\n"
      "               [--predictor=SPEC] [--horizon-hours=24] [--all-classes]\n"
      "               [--no-verify] [--no-shutdown]\n"
      "  crf checkpoint --file=FILE\n"
      "SPEC: limit-sum | borg-default[:phi] | rc-like[:pct] | n-sigma[:n]\n"
      "      | autopilot[:pct[:margin]] | chance[:target] | flex[:pct[:margin]]\n"
      "      | max(SPEC,...)\n",
      stderr);
  return 2;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (!args.ok()) {
    return Fail(args.error());
  }
  if (command == "generate") {
    return CmdGenerate(args);
  }
  if (command == "info") {
    return CmdInfo(args);
  }
  if (command == "convert") {
    return CmdConvert(args);
  }
  if (command == "simulate") {
    return CmdSimulate(args);
  }
  if (command == "cluster") {
    return CmdCluster(args);
  }
  if (command == "serve") {
    return CmdServe(args);
  }
  if (command == "loadgen") {
    return CmdLoadgen(args);
  }
  if (command == "checkpoint") {
    return CmdCheckpoint(args);
  }
  return Usage();
}

}  // namespace
}  // namespace crf

int main(int argc, char** argv) { return crf::Run(argc, argv); }
