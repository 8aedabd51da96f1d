// crf — command-line driver for the overcommit simulator.
//
// Every flag is declared once, as a row of the flag table below, and every
// subcommand lists the rows it takes. One parse checks each flag against its
// row before the command does any work. `crf` with no arguments prints the
// usage text generated from the table.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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
#include "crf/util/check.h"
#include "crf/util/table.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "crf: %s\n", message.c_str());
  return 2;
}

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

// What a flag's value must be. A bool flag takes no value; every other kind
// needs a non-empty one.
enum class Kind {
  kBool,
  kInt,           // a base-10 integer in [min, max]
  kDuration,      // a number in [0, max] of units of `unit` intervals, at least one interval
  kTraceIn,       // a trace file to read; its header is checked
  kCheckpointIn,  // a checkpoint file to read; its header is checked
  kOutput,        // a file to write: its directory exists and is writable
  kCell,          // a..h, cell_a..cell_h or production_1..production_5
  kChoice,        // one of the '|'-separated `choices`
  kSpec,          // a predictor spec (crf/core/spec_parser.h)
  kHostPort,      // HOST:PORT, :PORT or PORT (crf/util/arg_parse.h)
};

struct Flag {
  const char* name;
  Kind kind;
  const char* help;
  int64_t min = 0;
  int64_t max = 0;
  Interval unit = 0;
  const char* choices = nullptr;
};

std::string Dashed(const Flag& flag) { return std::string("--") + flag.name; }

// The flag table.
const Flag kTrace{"trace", Kind::kTraceIn, "binary trace file to read"};
const Flag kReplay{"replay", Kind::kTraceIn, "binary trace file to replay"};
const Flag kMmap{"mmap", Kind::kBool, "map the binary trace zero-copy instead of loading it"};
const Flag kCell{"cell", Kind::kCell, "cell to synthesize: a..h, cell_a..cell_h, production_1..5"};
const Flag kMachines{"machines", Kind::kInt, "machines (default: the cell's)", 1, 1000000};
const Flag kDays{"days", Kind::kDuration, "length in days", 0, 3650, kIntervalsPerDay};
const Flag kRich{"rich", Kind::kBool, "store the within-interval percentile ladder"};
const Flag kProbes{"probes", Kind::kInt, "placement probes; 0 scans every machine", 0, 1 << 20};
const Flag kSeed{"seed", Kind::kInt, "RNG seed, any 64-bit integer", INT64_MIN, INT64_MAX};
const Flag kThreads{"threads", Kind::kInt, "worker pool for every stage; 0 or 1 is serial; "
                                          "never changes results", 0, 1024};
const Flag kPredictor{"predictor", Kind::kSpec, "peak predictor"};
const Flag kHorizon{"horizon-hours", Kind::kDuration, "oracle horizon in hours", 0, 24 * 3650,
                    kIntervalsPerHour};
const Flag kAllClasses{"all-classes", Kind::kBool, "keep every task class, not just serving"};
const Flag kOut{"out", Kind::kOutput, "file to write"};
const Flag kPacking{"packing", Kind::kChoice, "packing policy", 0, 0, 0,
                    "best-fit|worst-fit|random-fit"};
const Flag kShards{"shards", Kind::kInt, "ingestion shards; fixes the cell-series rounding", 1,
                   65536};
const Flag kCheckpointOut{"checkpoint-out", Kind::kOutput, "checkpoint to seal (also on SIGINT)"};
const Flag kCheckpointAt{"checkpoint-at", Kind::kInt, "tick to seal at (default: halfway)", 0,
                         INT32_MAX};
const Flag kStopAfterCheckpoint{"stop-after-checkpoint", Kind::kBool, "exit after sealing"};
const Flag kResume{"resume", Kind::kCheckpointIn, "checkpoint to resume; it carries the predictor"};
const Flag kMetricsOut{"metrics-out", Kind::kOutput, "serve metrics JSON to write"};
const Flag kListen{"listen", Kind::kHostPort, "serve over TCP (CRFNET1) instead of replaying"};
const Flag kPortFile{"port-file", Kind::kOutput, "file to write the bound port to"};
const Flag kMaxConns{"max-conns", Kind::kInt, "most concurrent connections", 1, 65536};
const Flag kConnect{"connect", Kind::kHostPort, "`crf serve --listen` endpoint"};
const Flag kClients{"clients", Kind::kInt, "client connections", 1, 256};
const Flag kBatchTicks{"batch-ticks", Kind::kInt, "ticks per ingest frame", 1, 1 << 20};
const Flag kUntil{"until", Kind::kInt, "last tick to stream, -1 for all", -1, 1 << 30};
const Flag kNoVerify{"no-verify", Kind::kBool, "skip the in-process verification replay"};
const Flag kNoShutdown{"no-shutdown", Kind::kBool, "leave the server running"};
const Flag kFile{"file", Kind::kCheckpointIn, "checkpoint file"};

// A flag as one command takes it: with a default (parsed like a given
// value), required, or else absent unless given.
struct Row {
  const Flag* flag;
  const char* fallback = nullptr;
  bool required = false;
};
using Rows = std::vector<Row>;

Rows Join(std::initializer_list<Rows> groups) {
  Rows rows;
  for (const Rows& group : groups) {
    rows.insert(rows.end(), group.begin(), group.end());
  }
  return rows;
}

const Rows kCellRows = {{&kCell, "a"},  {&kMachines},      {&kDays, "7"},
                        {&kRich},       {&kProbes, "0"},   {&kSeed, "42"}};
const Rows kTraceRows = Join({{{&kTrace}, {&kMmap}}, kCellRows});
const Rows kThreadRows = {{&kThreads, "0"}};
const Rows kPredictorRows = {
    {&kPredictor, "max(n-sigma:5,rc-like:99)"}, {&kHorizon, "24"}, {&kAllClasses}};

// One flag's value, from the command line or the row's default.
struct Value {
  bool given = false;
  std::string text;
  int64_t number = 0;  // kInt; kDuration in intervals
  std::optional<PredictorSpec> spec;
  std::optional<CellProfile> profile;
  HostPort endpoint;
};

// A command's parsed flags, read through the table's Flag constants.
class Flags {
 public:
  // Whether `flag` was on the command line.
  bool Has(const Flag& flag) const { return Find(flag).given; }
  int64_t Int(const Flag& flag) const { return Find(flag).number; }
  const std::string& Text(const Flag& flag) const { return Find(flag).text; }
  const PredictorSpec& Spec(const Flag& flag) const { return *Find(flag).spec; }
  const CellProfile& Profile(const Flag& flag) const { return *Find(flag).profile; }
  const HostPort& Endpoint(const Flag& flag) const { return Find(flag).endpoint; }

  Value& operator[](const Flag& flag) { return values_[&flag]; }

 private:
  const Value& Find(const Flag& flag) const {
    const auto it = values_.find(&flag);
    CRF_CHECK(it != values_.end()) << "--" << flag.name << " is not in the command's table";
    return it->second;
  }

  std::map<const Flag*, Value> values_;
};

std::string Metavar(const Flag& flag) {
  static const char* const kMetavars[] = {"",        "=INT",  "=NUMBER", "=FILE", "=FILE",
                                          "=OUTPUT", "=CELL", "=",       "=SPEC", "=HOST:PORT"};
  return kMetavars[static_cast<int>(flag.kind)] +
         std::string(flag.kind == Kind::kChoice ? flag.choices : "");
}

// Parses `value->text` by the flag's kind; false with `*error` naming the
// flag when the text is not a valid value.
bool ParseValue(const Flag& flag, Value* value, std::string* error) {
  const std::string& text = value->text;
  const std::string quoted = Dashed(flag) + " value \"" + text + "\"";
  if (flag.kind != Kind::kBool && text.empty()) {
    *error = Dashed(flag) + " value must not be empty";
    return false;
  }
  std::string detail;
  switch (flag.kind) {
    case Kind::kBool:
      return true;
    case Kind::kTraceIn:
    case Kind::kCheckpointIn:
      // Header only, so a bad file fails before any work at the cost of one
      // short read whatever the file's size.
      if (!(flag.kind == Kind::kTraceIn ? CheckCellTraceHeader(text, &detail)
                                        : CheckCheckpointHeader(text, &detail))) {
        *error = Dashed(flag) + ": " + detail;
        return false;
      }
      return true;
    case Kind::kInt:
      return ParseIntFlag(flag.name, text, flag.min, flag.max, &value->number, error);
    case Kind::kDuration: {
      double units = 0.0;
      if (!ParseDoubleFlag(flag.name, text, 0.0, static_cast<double>(flag.max), &units, error)) {
        return false;
      }
      value->number = static_cast<int64_t>(units * flag.unit);
      if (value->number < 1) {
        *error = quoted + " is shorter than one 5-minute interval";
        return false;
      }
      return true;
    }
    case Kind::kOutput:
      if (!CheckAtomicTarget(text, &detail)) {
        *error = Dashed(flag) + ": " + detail;
        return false;
      }
      return true;
    case Kind::kCell:
      value->profile = ResolveProfile(text);
      if (!value->profile.has_value()) {
        *error = quoted + " is not a cell (use a..h or production_1..5)";
        return false;
      }
      return true;
    case Kind::kChoice:
      if (text.find('|') != std::string::npos ||
          ("|" + std::string(flag.choices) + "|").find("|" + text + "|") == std::string::npos) {
        *error = quoted + " is not one of " + flag.choices;
        return false;
      }
      return true;
    case Kind::kSpec:
      value->spec = ParsePredictorSpec(text, &detail);
      if (!value->spec.has_value()) {
        *error = "bad " + Dashed(flag) + " spec: " + detail;
        return false;
      }
      return true;
    case Kind::kHostPort:
      return ParseHostPortFlag(flag.name, text, &value->endpoint, error);
  }
  return false;
}

// Reads `args` (each "--name" or "--name=value") against `rows`: every flag
// must be in the table and given at most once, with a value exactly when it
// is not a bool, and every required row must be given. Then every given
// value and every default is parsed by its kind. On the first fault returns
// nullopt with `*error` naming the flag.
std::optional<Flags> ParseFlags(const std::string& command, const Rows& rows,
                                const std::vector<std::string>& args, std::string* error) {
  Flags flags;
  for (const Row& row : rows) {
    flags[*row.flag];  // Declares the row, so Flags can tell it from a flag the command lacks.
  }
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument: " + arg;
      return std::nullopt;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&](const Row& r) { return Dashed(*r.flag) == name; });
    if (row == rows.end()) {
      *error = "unknown flag " + name;
      return std::nullopt;
    }
    Value& value = flags[*row->flag];
    if (value.given) {
      *error = name + " is given twice";
      return std::nullopt;
    }
    if ((row->flag->kind == Kind::kBool) != (eq == std::string::npos)) {
      *error = eq == std::string::npos ? name + " needs a value: " + name + Metavar(*row->flag)
                                       : name + " takes no value";
      return std::nullopt;
    }
    value.given = true;
    value.text = eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
  for (const Row& row : rows) {
    Value& value = flags[*row.flag];
    if (!value.given && row.required) {
      *error = command + " requires " + Dashed(*row.flag) + Metavar(*row.flag);
      return std::nullopt;
    }
    if (!value.given && row.fallback == nullptr) {
      continue;
    }
    if (!value.given) {
      value.text = row.fallback;
    }
    if (!ParseValue(*row.flag, &value, error)) {
      return std::nullopt;
    }
  }
  return flags;
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

// The profile of the cell --cell names, resized by --machines.
CellProfile ProfileFrom(const Flags& flags) {
  CellProfile profile = flags.Profile(kCell);
  if (flags.Has(kMachines)) {
    profile.num_machines = static_cast<int>(flags.Int(kMachines));
  }
  return profile;
}

GeneratorOptions GeneratorFrom(const Flags& flags, ThreadPool& pool) {
  GeneratorOptions options;
  options.num_intervals = static_cast<Interval>(flags.Int(kDays));
  options.rich_stats = flags.Has(kRich);
  options.placement_probes = static_cast<int>(flags.Int(kProbes));
  options.pool = &pool;
  return options;
}

Rng SeedFrom(const Flags& flags) { return Rng(static_cast<uint64_t>(flags.Int(kSeed))); }

// A cell comes from the trace file `source` names or is synthesized; the
// flags of the other way are rejected, not ignored.
bool CheckSource(const Flags& flags, const Flag& source, std::string* error) {
  for (const Row& row : kCellRows) {
    if (flags.Has(source) && flags.Has(*row.flag)) {
      *error = Dashed(*row.flag) + " synthesizes a cell; it cannot be combined with " +
               Dashed(source);
      return false;
    }
  }
  if (!flags.Has(source) && flags.Has(kMmap)) {
    *error = Dashed(kMmap) + " maps a binary trace; it requires " + Dashed(source);
    return false;
  }
  return true;
}

std::optional<CellTrace> LoadTrace(const Flags& flags, const Flag& source, std::string* error) {
  TraceLoadOptions load;
  if (flags.Has(kMmap)) {
    load.mode = TraceLoadMode::kMapped;
  }
  const std::string& path = flags.Text(source);
  std::string load_error;
  auto cell = LoadCellTrace(path, load, &load_error);
  if (!cell.has_value()) {
    *error = "cannot load trace " + path + (load_error.empty() ? "" : ": " + load_error);
  }
  return cell;
}

std::optional<CellTrace> LoadOrSynthesize(const Flags& flags, const Flag& source,
                                          ThreadPool& pool, std::string* error) {
  if (!CheckSource(flags, source, error)) {
    return std::nullopt;
  }
  if (flags.Has(source)) {
    return LoadTrace(flags, source, error);
  }
  return GenerateCellTrace(ProfileFrom(flags), GeneratorFrom(flags, pool), SeedFrom(flags));
}

// --threads: the one pool every stage of a command runs on. 0 or 1 gives a
// pool with no workers, so the whole run stays on the calling thread.
int ThreadsFrom(const Flags& flags) { return static_cast<int>(flags.Int(kThreads)); }

// Generation streams the cell into the file (GenerateCellTraceToFile): it
// never holds the sealed cell, and a killed run leaves the previous file.
int CmdGenerate(const Flags& flags) {
  const std::string& out = flags.Text(kOut);
  ThreadPool pool(ThreadsFrom(flags));
  const CellProfile profile = ProfileFrom(flags);
  const GeneratorOptions options = GeneratorFrom(flags, pool);
  StreamedTraceInfo info;
  std::string error;
  if (!GenerateCellTraceToFile(profile, options, SeedFrom(flags), out, &error, &info)) {
    return Fail(error);
  }
  std::printf("wrote %s: %d machines, %lld tasks, %d intervals, %llu bytes\n", out.c_str(),
              profile.num_machines, static_cast<long long>(info.num_tasks),
              options.num_intervals, static_cast<unsigned long long>(info.file_bytes));
  std::fprintf(stderr, "crf: placement %.0f ms (%lld attempts, %.0f placements/s)\n",
               info.placement_ms, static_cast<long long>(info.placement_attempts),
               info.placement_ms > 0.0 ? info.placement_attempts * 1000.0 / info.placement_ms
                                       : 0.0);
  return 0;
}

int CmdConvert(const Flags& flags) {
  const std::string& out = flags.Text(kOut);
  std::string error;
  const auto cell = LoadTrace(flags, kTrace, &error);
  if (!cell.has_value()) {
    return Fail(error);
  }
  if (!ExportCellTraceText(*cell, out, &error)) {
    return Fail(error);
  }
  std::printf("exported %s -> %s (text): %d machines, %d tasks, %d intervals\n",
              flags.Text(kTrace).c_str(), out.c_str(), cell->num_machines(), cell->num_tasks(),
              cell->num_intervals);
  return 0;
}

int CmdInfo(const Flags& flags) {
  ThreadPool pool(ThreadsFrom(flags));
  std::string error;
  const auto cell = LoadOrSynthesize(flags, kTrace, pool, &error);
  if (!cell.has_value()) {
    return Fail(error);
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

int CmdSimulate(const Flags& flags) {
  ThreadPool pool(ThreadsFrom(flags));
  SimOptions options;
  options.horizon = static_cast<Interval>(flags.Int(kHorizon));
  options.pool = &pool;
  std::string error;
  auto cell = LoadOrSynthesize(flags, kTrace, pool, &error);
  if (!cell.has_value()) {
    return Fail(error);
  }
  if (!flags.Has(kAllClasses)) {
    cell->FilterToServingTasks();
  }

  const SimResult result = SimulateCell(*cell, flags.Spec(kPredictor), options);
  std::printf("cell %s, predictor %s, horizon %gh\n", result.cell_name.c_str(),
              result.predictor_name.c_str(), IntervalsToHours(options.horizon));
  PrintSimResultTable(result);
  return 0;
}

// The deterministic end-of-replay block shared by the local replay path and
// the network server (after clients stream the whole trace): CI diffs these
// lines across resumed, interrupted, and network-fed runs.
void PrintServeResults(StreamReplayer& replayer, const ReplayOptions& options) {
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
}

// `crf serve --listen`: exposes the replayer over TCP until the trace is
// done or a stop is requested.
int ServeListen(const Flags& flags, StreamReplayer& replayer, const CellTrace& cell,
                const ReplayOptions& options) {
  NetServerOptions net_options;
  net_options.host = flags.Endpoint(kListen).host;
  net_options.port = flags.Endpoint(kListen).port;
  net_options.max_connections = static_cast<int>(flags.Int(kMaxConns));
  net_options.checkpoint_out = flags.Text(kCheckpointOut);
  OvercommitServer server(replayer, net_options);
  std::string error;
  if (!server.Start(&error)) {
    return Fail(error);
  }
  // Atomic, so a script polling for a non-empty file never reads a partial
  // port number.
  if (flags.Has(kPortFile) &&
      !WriteFileAtomic(flags.Text(kPortFile), std::to_string(server.port()) + "\n", &error)) {
    return Fail("cannot write " + Dashed(kPortFile) + ": " + error);
  }
  std::fprintf(stderr, "crf: serving %s (%s) on %s:%d, %d shards, next tick %d/%d\n",
               cell.name.c_str(), replayer.spec().Name().c_str(), net_options.host.c_str(),
               server.port(), options.num_shards, replayer.next_tick(), cell.num_intervals);
  InstallStopHandlers();
  server.Wait(&g_stop);
  if (server.sealed()) {
    std::printf("checkpoint written to %s at tick %d/%d\n", server.sealed_path().c_str(),
                server.sealed_tick(), cell.num_intervals);
  }
  if (replayer.Done()) {
    PrintServeResults(replayer, options);
  } else {
    std::fprintf(stderr, "crf: stopped at tick %d/%d\n", replayer.next_tick(),
                 cell.num_intervals);
  }
  return 0;
}

// Local `crf serve`: replays the trace in-process, sealing a checkpoint at
// --checkpoint-at and on SIGINT/SIGTERM when --checkpoint-out is set.
int ServeLocal(const Flags& flags, StreamReplayer& replayer, const CellTrace& cell,
               const ReplayOptions& options) {
  const std::string& checkpoint_out = flags.Text(kCheckpointOut);
  std::string error;
  if (flags.Has(kCheckpointOut)) {
    const Interval cut = flags.Has(kCheckpointAt) ? static_cast<Interval>(flags.Int(kCheckpointAt))
                                                  : cell.num_intervals / 2;
    if (cut < replayer.next_tick() || cut > cell.num_intervals) {
      return Fail(Dashed(kCheckpointAt) + "=" + std::to_string(cut) + " is outside [" +
                  std::to_string(replayer.next_tick()) + ", " +
                  std::to_string(cell.num_intervals) + "]");
    }
    replayer.Advance(cut);
    if (!SaveCheckpoint(replayer, checkpoint_out, &error)) {
      return Fail(error);
    }
    std::printf("checkpoint written to %s at tick %d/%d\n", checkpoint_out.c_str(),
                replayer.next_tick(), cell.num_intervals);
    if (flags.Has(kStopAfterCheckpoint)) {
      return 0;
    }
  }

  // Chunked replay (day granularity) so SIGINT/SIGTERM can stop between
  // Advance calls and seal a resumable checkpoint — the same interval-
  // boundary cut the network shutdown op makes. Chunking never affects
  // results (Advance is bit-identical under any call slicing).
  InstallStopHandlers();
  while (!replayer.Done() && !g_stop.load()) {
    replayer.Advance(
        std::min<Interval>(replayer.next_tick() + kIntervalsPerDay, cell.num_intervals));
  }
  if (replayer.Done()) {
    PrintServeResults(replayer, options);
    return 0;
  }
  if (flags.Has(kCheckpointOut)) {
    if (!SaveCheckpoint(replayer, checkpoint_out, &error)) {
      return Fail(error);
    }
    std::printf("checkpoint written to %s at tick %d/%d\n", checkpoint_out.c_str(),
                replayer.next_tick(), cell.num_intervals);
  }
  std::fprintf(stderr, "crf: stopped at tick %d/%d%s\n", replayer.next_tick(),
               cell.num_intervals,
               flags.Has(kCheckpointOut)
                   ? ""
                   : (" (no " + Dashed(kCheckpointOut) + "; state discarded)").c_str());
  return 0;
}

// Streaming replay through the serve layer (crf/serve). Deterministic
// results go to stdout — CI diffs a resumed run against an uninterrupted
// one — timing-derived throughput goes to stderr. With --listen the replayer
// is instead exposed over TCP (crf/net) and driven by remote clients.
int CmdServe(const Flags& flags) {
  const bool listen = flags.Has(kListen);
  const bool checkpoint_at = flags.Has(kCheckpointAt) || flags.Has(kStopAfterCheckpoint);
  const std::string at_flags = Dashed(kCheckpointAt) + "/" + Dashed(kStopAfterCheckpoint);
  if (!listen && (flags.Has(kPortFile) || flags.Has(kMaxConns))) {
    return Fail(Dashed(kPortFile) + "/" + Dashed(kMaxConns) + " require " + Dashed(kListen));
  }
  if (listen && checkpoint_at) {
    return Fail(at_flags + " are not valid with " + Dashed(kListen));
  }
  if (checkpoint_at && !flags.Has(kCheckpointOut)) {
    return Fail(at_flags + " require " + Dashed(kCheckpointOut));
  }
  ThreadPool pool(ThreadsFrom(flags));
  ReplayOptions options;
  options.horizon = static_cast<Interval>(flags.Int(kHorizon));
  options.num_shards = static_cast<int>(flags.Int(kShards));
  options.pool = &pool;
  std::string error;
  auto cell = LoadOrSynthesize(flags, kReplay, pool, &error);
  if (!cell.has_value()) {
    return Fail(error);
  }
  if (!flags.Has(kAllClasses)) {
    if (cell->is_mapped()) {
      std::fprintf(stderr,
                   "crf: note: class filtering reseals the trace on the heap; use"
                   " %s to keep the mmap zero-copy path\n",
                   Dashed(kAllClasses).c_str());
    }
    cell->FilterToServingTasks();
  }

  std::unique_ptr<StreamReplayer> replayer;
  if (flags.Has(kResume)) {
    // The checkpoint carries the predictor spec; --predictor is ignored.
    replayer = LoadCheckpoint(flags.Text(kResume), *cell, options, &error);
    if (replayer == nullptr) {
      return Fail("cannot resume: " + error);
    }
  } else {
    replayer = std::make_unique<StreamReplayer>(*cell, flags.Spec(kPredictor), options);
  }

  // The one exit once a replayer exists: every run, finished, stopped or
  // cut at a checkpoint, writes --metrics-out.
  const int status = listen ? ServeListen(flags, *replayer, *cell, options)
                            : ServeLocal(flags, *replayer, *cell, options);
  if (flags.Has(kMetricsOut) && !replayer->Metrics().WriteJson(flags.Text(kMetricsOut))) {
    return Fail("cannot write metrics to " + flags.Text(kMetricsOut));
  }
  return status;
}

// Drives `crf serve --listen` over loopback/LAN: K client threads stream
// disjoint shard sets through batched ingest frames, then the server's end
// state is verified bit-for-bit against an in-process replay. The verify
// verdict and event totals on stdout are deterministic; rates and latency
// percentiles are timing-derived.
int CmdLoadgen(const Flags& flags) {
  const HostPort& endpoint = flags.Endpoint(kConnect);
  if (endpoint.port == 0) {
    return Fail(Dashed(kConnect) + " requires an explicit port");
  }
  ThreadPool pool(ThreadsFrom(flags));
  LoadGenOptions options;
  options.host = endpoint.host;
  options.port = endpoint.port;
  options.client_threads = static_cast<int>(flags.Int(kClients));
  options.batch_ticks = static_cast<int>(flags.Int(kBatchTicks));
  options.until = static_cast<Interval>(flags.Int(kUntil));
  options.verify = !flags.Has(kNoVerify);
  options.send_shutdown = !flags.Has(kNoShutdown);
  // The verification replay must mirror the server's replay options:
  // --shards fixes the cell-series rounding, --horizon-hours the oracle.
  options.verify_options.horizon = static_cast<Interval>(flags.Int(kHorizon));
  options.verify_options.num_shards = static_cast<int>(flags.Int(kShards));
  options.verify_options.pool = &pool;

  std::string error;
  auto cell = LoadOrSynthesize(flags, kTrace, pool, &error);
  if (!cell.has_value()) {
    return Fail(error);
  }
  if (!flags.Has(kAllClasses)) {
    cell->FilterToServingTasks();
  }

  LoadGenReport report;
  if (!RunLoadGen(*cell, flags.Spec(kPredictor), options, &report)) {
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

int CmdCheckpoint(const Flags& flags) {
  const std::string& file = flags.Text(kFile);
  CheckpointInfo info;
  std::string error;
  if (!ReadCheckpointInfo(file, &info, &error)) {
    return Fail(error);
  }
  std::printf("checkpoint %s (version %u)\n", file.c_str(), info.version);
  std::printf("  trace:    %s (%d machines, %d intervals)\n", info.trace_name.c_str(),
              info.num_machines, info.num_intervals);
  std::printf("  predictor: %s\n", info.spec_name.c_str());
  std::printf("  progress: next tick %d/%d, %d shards\n", info.next_tick, info.num_intervals,
              info.num_shards);
  std::printf("  payload:  %llu bytes\n", static_cast<unsigned long long>(info.payload_bytes));
  return 0;
}

int CmdCluster(const Flags& flags) {
  const CellProfile profile = ProfileFrom(flags);
  ThreadPool pool(ThreadsFrom(flags));
  ClusterSimOptions options;
  options.num_intervals = static_cast<Interval>(flags.Int(kDays));
  options.warmup = std::min<Interval>(2 * kIntervalsPerDay, options.num_intervals / 4);
  options.predictor = flags.Spec(kPredictor);
  const std::string& packing = flags.Text(kPacking);
  for (const PackingPolicy policy :
       {PackingPolicy::kBestFit, PackingPolicy::kWorstFit, PackingPolicy::kRandomFit}) {
    if (PackingPolicyName(policy) == packing) {
      options.packing = policy;
    }
  }
  options.pool = &pool;

  const ClusterSimResult result = RunClusterSim(profile, options, SeedFrom(flags));
  const std::vector<ClusterSimResult> results{result};
  const GroupMetrics metrics =
      ComputeGroupMetrics(result.predictor_name, results, kIntervalsPerDay, &pool);
  std::printf("cell %s, predictor %s, packing %s, %g days (%d machines)\n",
              result.cell_name.c_str(), result.predictor_name.c_str(), packing.c_str(),
              IntervalsToHours(options.num_intervals) / 24.0, profile.num_machines);
  Table table({"metric", "p50", "p90"});
  // Any metric may have no samples (a run that places no task has no
  // savings); its row reads n/a.
  const auto add_row = [&table](const std::string& name, const Ecdf& ecdf) {
    if (ecdf.empty()) {
      table.AddRow({name, "n/a", "n/a"});
    } else {
      table.AddRow(name, {ecdf.Quantile(0.5), ecdf.Quantile(0.9)});
    }
  };
  add_row("alloc/capacity", metrics.normalized_allocation);
  add_row("usage/capacity", metrics.normalized_workload);
  add_row("relative savings", metrics.relative_savings);
  add_row("machine violation rate", metrics.violation_rate);
  add_row("severity p999", metrics.severity_p999);
  add_row("max violation streak", metrics.max_violation_streak);
  add_row("machine p90 latency", metrics.machine_p90_latency);
  table.Print();
  std::printf("tasks placed %lld, timed out %lld (%lld placement attempts)\n",
              static_cast<long long>(result.tasks_placed),
              static_cast<long long>(result.tasks_timed_out),
              static_cast<long long>(result.placement_attempts));
  return 0;
}

struct Command {
  const char* name;
  const char* summary;
  Rows rows;
  int (*run)(const Flags&);
};

const Command kCommands[] = {
    {"generate",
     "synthesize a cell straight into a binary trace file, machine block by machine block",
     Join({{{&kOut, nullptr, true}}, kCellRows, kThreadRows}), CmdGenerate},
    {"info", "print a trace's workload statistics (with --mmap, its page residency)",
     Join({kTraceRows, kThreadRows}), CmdInfo},
    {"convert", "export a binary trace as text (export only: crf reads binary traces)",
     {{&kTrace, nullptr, true}, {&kOut, nullptr, true}, {&kMmap}}, CmdConvert},
    {"simulate", "run the trace-driven simulator; prints violation and savings metrics",
     Join({kTraceRows, kThreadRows, kPredictorRows}), CmdSimulate},
    {"cluster", "run the closed-loop Borg-like cell simulation; prints group metrics",
     {{&kCell, "production_1"}, {&kMachines}, {&kDays, "14"}, {&kSeed, "42"},
      {&kPredictor, "borg-default:0.9"}, {&kPacking, "best-fit"}, {&kThreads, "0"}},
     CmdCluster},
    {"serve",
     "replay a trace through the online serve layer (stdout is the same at any thread count),"
     " or serve it over TCP with --listen",
     Join({{{&kReplay}, {&kMmap}}, kCellRows, kThreadRows, kPredictorRows,
           {{&kShards, "16"}, {&kCheckpointOut}, {&kCheckpointAt}, {&kStopAfterCheckpoint},
            {&kResume}, {&kMetricsOut}, {&kListen}, {&kPortFile}, {&kMaxConns, "64"}}}),
     CmdServe},
    {"loadgen", "replay a trace over the wire against `crf serve --listen` and verify it",
     Join({{{&kConnect, nullptr, true}}, kTraceRows, kThreadRows, kPredictorRows,
           {{&kClients, "4"}, {&kBatchTicks, "256"}, {&kUntil, "-1"}, {&kShards, "16"},
            {&kNoVerify}, {&kNoShutdown}}}),
     CmdLoadgen},
    {"checkpoint", "inspect a serve checkpoint's header", {{&kFile, nullptr, true}},
     CmdCheckpoint},
};

int Usage() {
  std::string text =
      "usage: crf <command> [--flag[=VALUE] ...]\n"
      "A bool flag takes no value; every other flag needs one.\n"
      "SPEC: limit-sum | borg-default[:phi] | rc-like[:pct] | n-sigma[:n]\n"
      "      | autopilot[:pct[:margin]] | chance[:target] | flex[:pct[:margin]]\n"
      "      | max(SPEC,...)\n";
  for (const Command& command : kCommands) {
    text += std::string("\ncrf ") + command.name + ": " + command.summary + "\n";
    for (const Row& row : command.rows) {
      const Flag& flag = *row.flag;
      std::string line = "  " + Dashed(flag) + Metavar(flag);
      line.resize(std::max<size_t>(line.size() + 2, 32), ' ');
      line += flag.help;
      if (flag.kind == Kind::kInt && flag.min != INT64_MIN) {
        line += ", in [" + std::to_string(flag.min) + ", " + std::to_string(flag.max) + "]";
      } else if (flag.kind == Kind::kDuration) {
        line += ", at least 5 minutes, at most " + std::to_string(flag.max);
      }
      if (row.required) {
        line += " (required)";
      } else if (row.fallback != nullptr) {
        line += std::string(" (default ") + row.fallback + ")";
      }
      text += line + "\n";
    }
  }
  std::fputs(text.c_str(), stderr);
  return 2;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string name = argv[1];
  for (const Command& command : kCommands) {
    if (name == command.name) {
      std::string error;
      const auto flags =
          ParseFlags(name, command.rows, std::vector<std::string>(argv + 2, argv + argc), &error);
      return flags.has_value() ? command.run(*flags) : Fail(error);
    }
  }
  return Usage();
}

}  // namespace
}  // namespace crf

int main(int argc, char** argv) { return crf::Run(argc, argv); }
