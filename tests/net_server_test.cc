// Loopback contract of the network serve tier (crf/net/server.h): state
// streamed over TCP is bit-identical to an in-process replay for every
// predictor family, a shutdown-sealed checkpoint resumes bit-identically,
// and protocol violations draw a kError + connection close — never a crash
// or a CHECK abort — while the server keeps serving other clients.

#include "crf/net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "crf/core/machine_roster.h"
#include "crf/core/spec_parser.h"
#include "crf/net/client.h"
#include "crf/net/loadgen.h"
#include "crf/serve/checkpoint.h"
#include "crf/serve/replay.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"
#include "roster_faults.h"

namespace crf {
namespace {

CellTrace RandomCell(uint64_t seed, const std::string& name = "net_cell") {
  Rng rng(seed);
  const Interval num_intervals = 48 + static_cast<Interval>(rng.UniformInt(17));
  const int num_machines = 5 + static_cast<int>(rng.UniformInt(4));
  CellTraceBuilder builder(name, num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    const int num_tasks = 2 + static_cast<int>(rng.UniformInt(10));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.05 + rng.UniformDouble() * 0.95;
      const Interval len = 1 + static_cast<Interval>(rng.UniformInt(num_intervals - start + 3));
      const int32_t index =
          builder.AddTask(id, id, m, start, limit, SchedulingClass::kLatencySensitive);
      builder.ReserveUsage(index, static_cast<size_t>(len));
      for (Interval k = 0; k < len; ++k) {
        builder.AppendUsage(index, static_cast<float>(limit * rng.UniformDouble()));
      }
    }
  }
  return builder.Seal();
}

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : tag) {
    if (c == '/') {
      c = '_';
    }
  }
  return ::testing::TempDir() + "/" + tag + "_" + name;
}

ReplayOptions TestReplayOptions() {
  ReplayOptions options;
  options.num_shards = 4;
  options.parallel = false;
  return options;
}

// Owns a replayer + running server on an ephemeral loopback port.
struct ServerHarness {
  ServerHarness(const CellTrace& cell, const PredictorSpec& spec,
                const std::string& checkpoint_out = "") {
    replayer = std::make_unique<StreamReplayer>(cell, spec, TestReplayOptions());
    Serve(checkpoint_out);
  }
  ServerHarness(std::unique_ptr<StreamReplayer> resumed, const std::string& checkpoint_out)
      : replayer(std::move(resumed)) {
    Serve(checkpoint_out);
  }

  void Serve(const std::string& checkpoint_out) {
    NetServerOptions net;
    net.checkpoint_out = checkpoint_out;
    server = std::make_unique<OvercommitServer>(*replayer, net);
    std::string error;
    started = server->Start(&error);
    EXPECT_TRUE(started) << error;
  }

  std::unique_ptr<StreamReplayer> replayer;
  std::unique_ptr<OvercommitServer> server;
  bool started = false;
};

LoadGenOptions TestLoadGenOptions(int port) {
  LoadGenOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.client_threads = 2;
  options.batch_ticks = 7;  // deliberately misaligned with the window
  options.verify_options = TestReplayOptions();
  return options;
}

// One vector of honest events per tick of `machine` — the trace walk's own
// stream.
std::vector<std::vector<StreamEvent>> MachineTicks(const CellTrace& cell, int machine) {
  const MachineTaskColumns cols(cell);
  MachineRoster walk;
  walk.StartTraceWalk(cols, cell.machine_tasks(machine));
  std::vector<std::vector<StreamEvent>> ticks(cell.num_intervals);
  for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
    walk.AdvanceTrace(cols, tau, machine, &ticks[tau]);
  }
  return ticks;
}

// An ingest batch of `machine`'s honest ticks [from, until).
IngestBatchRequest HonestBatch(const std::vector<std::vector<StreamEvent>>& ticks, int machine,
                               Interval from, Interval until, Interval window_until) {
  IngestBatchRequest request;
  request.machine = machine;
  request.from_tick = from;
  request.until_tick = until;
  request.window_until = window_until;
  for (Interval tau = from; tau < until; ++tau) {
    request.events.insert(request.events.end(), ticks[tau].begin(), ticks[tau].end());
  }
  return request;
}

// Sends `op` and requires the server to answer with a kError frame — not a
// success, and not a dropped connection. Returns the error message.
template <typename Request>
std::string ExpectErrorFrame(NetClient& client, WireOp op, const Request& request) {
  ByteWriter payload;
  request.EncodeTo(payload);
  WireOp response_op = op;
  std::span<const uint8_t> response;
  std::string error;
  EXPECT_TRUE(client.Call(op, payload, &response_op, &response, &error)) << error;
  EXPECT_EQ(response_op, WireOp::kError);
  ErrorResponse failure;
  EXPECT_TRUE(DecodePayload(response, failure));
  client.Close();  // the server closes its end after an error
  return failure.message;
}

class NetServerFamilyTest : public ::testing::TestWithParam<const char*> {};

// The tentpole differential: stream the whole trace over loopback and
// bit-compare every machine's end state (and the cell sums) against an
// in-process replay of the same trace — per predictor family, including the
// chance/flex families whose state machines are the most intricate.
TEST_P(NetServerFamilyTest, LoopbackStateIsBitIdenticalToInProcessReplay) {
  const CellTrace cell = RandomCell(101);
  std::string spec_error;
  const auto spec = ParsePredictorSpec(GetParam(), &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;

  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);

  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, TestLoadGenOptions(harness.server->port()), &report))
      << report.error;
  EXPECT_GT(report.events_sent, 0u);
  EXPECT_TRUE(report.verify_ran);
  EXPECT_EQ(report.mismatched_machines, 0);
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(report.shutdown_sent);
  harness.server->Wait();
  EXPECT_TRUE(harness.replayer->Done());
}

INSTANTIATE_TEST_SUITE_P(PredictorFamilies, NetServerFamilyTest,
                         ::testing::Values("limit-sum", "n-sigma:3", "rc-like:99",
                                           "borg-default:0.9", "autopilot:98:1.1",
                                           "max(chance:0.02,flex:95:1.2)",
                                           "max(n-sigma:5,rc-like:99)"));

// Shutdown mid-trace seals a CRFCKPT1; resuming a fresh server from it and
// streaming the remainder must land bit-identically on the same end state
// as an uninterrupted from-scratch replay (the loadgen verifier's reference).
TEST(NetServerCheckpointTest, ShutdownSealResumesBitIdentically) {
  const CellTrace cell = RandomCell(202);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("max(chance:0.02,flex:95:1.2)", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  const std::string ckpt = TempPath("seal.ckpt");
  const Interval half = cell.num_intervals / 2;

  {
    ServerHarness harness(cell, *spec, ckpt);
    ASSERT_TRUE(harness.started);
    LoadGenOptions options = TestLoadGenOptions(harness.server->port());
    options.until = half;
    options.verify = false;  // end state checked after the resumed leg
    LoadGenReport report;
    ASSERT_TRUE(RunLoadGen(cell, *spec, options, &report)) << report.error;
    EXPECT_TRUE(report.sealed);
    EXPECT_EQ(report.checkpoint_path, ckpt);
    EXPECT_EQ(report.final_tick, half);
    harness.server->Wait();
    EXPECT_TRUE(harness.server->sealed());
    EXPECT_EQ(harness.server->sealed_tick(), half);
  }

  std::string error;
  auto resumed = LoadCheckpoint(ckpt, cell, TestReplayOptions(), &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->next_tick(), half);

  ServerHarness harness(std::move(resumed), "");
  ASSERT_TRUE(harness.started);
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, TestLoadGenOptions(harness.server->port()), &report))
      << report.error;
  EXPECT_TRUE(report.verify_ran);
  EXPECT_TRUE(report.verified) << report.mismatched_machines << " machines mismatched";
  harness.server->Wait();
  EXPECT_TRUE(harness.replayer->Done());
}

// Sealing is refused while an ingest window is still open: the accumulators
// hold pushes past next_tick, so a checkpoint cut there could not resume.
TEST(NetServerCheckpointTest, SealIsRefusedMidWindow) {
  const CellTrace cell = RandomCell(303);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("n-sigma:3", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec, TempPath("refused.ckpt"));
  ASSERT_TRUE(harness.started);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  // Open a window on shard 0 without finishing it: one tick of machine 0.
  const IngestBatchRequest request =
      HonestBatch(MachineTicks(cell, 0), 0, 0, 1, cell.num_intervals);
  ASSERT_TRUE(client.IngestBatch(request, &error).has_value()) << error;

  NetClient shutdown_client;
  ASSERT_TRUE(shutdown_client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  ShutdownRequest down;
  const auto response = shutdown_client.Shutdown(down, &error);
  EXPECT_FALSE(response.has_value());
  EXPECT_NE(error.find("cannot seal"), std::string::npos) << error;
  harness.server->Wait();  // shutdown op still stops the server
  EXPECT_FALSE(harness.server->sealed());
}

// Protocol violations: wrong machine order within a shard, a departure of a
// task that is not resident, and every roster fault (roster_faults.h) each
// draw a kError and close only the offending connection. A roster fault
// mid-batch leaves the shard cursor on the applied prefix. Afterwards the
// window is finished honestly and a well-behaved client still gets clean,
// bit-identical service.
TEST(NetServerProtocolTest, ViolationsDrawErrorAndConnectionClose) {
  const CellTrace cell = RandomCell(404);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("limit-sum", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);
  const int port = harness.server->port();
  const auto ticks0 = MachineTicks(cell, 0);

  // One corrupted tick of machine 0 per fault, on distinct ticks after tick
  // 0, so every faulty batch carries an honest prefix: each tick takes the
  // first unplaced fault that applies to it. The violations all live in the
  // window [0, window); the loadgen streams the rest of the trace.
  struct PlannedFault {
    RosterFault fault;
    Interval tick;
  };
  std::vector<PlannedFault> plan;
  std::vector<RosterFault> unplaced(std::begin(kAllRosterFaults), std::end(kAllRosterFaults));
  for (Interval tick = 1; tick + 1 < cell.num_intervals && !unplaced.empty(); ++tick) {
    for (auto it = unplaced.begin(); it != unplaced.end(); ++it) {
      std::vector<StreamEvent> probe = ticks0[tick];
      if (InjectRosterFault(*it, tick, probe)) {
        plan.push_back({*it, tick});
        unplaced.erase(it);
        break;
      }
    }
  }
  ASSERT_TRUE(unplaced.empty()) << unplaced.size() << " faults found no tick on machine 0";
  const Interval window = plan.back().tick + 1;

  std::string error;
  {
    // Machine out of range.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    MachineQueryRequest query;
    query.machine = cell.num_machines() + 5;
    EXPECT_NE(ExpectErrorFrame(client, WireOp::kMachineQuery, query).find("machine"),
              std::string::npos);
  }
  {
    // Shard protocol: the first streamed machine must be the shard's first.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    // Shard 0 owns machines [0, 2) here; 0 must be first.
    const IngestBatchRequest request = HonestBatch(MachineTicks(cell, 1), 1, 0, 1, window);
    EXPECT_NE(ExpectErrorFrame(client, WireOp::kIngestBatch, request).find("out of order"),
              std::string::npos);
  }
  {
    // Roster violation: a departure for a task that is not resident.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = window;
    StreamEvent bogus;
    bogus.kind = StreamEventKind::kTaskDeparture;
    bogus.task_index = 999999;
    bogus.tick = 0;
    bogus.task_id = 999999;
    bogus.limit = 0.5;
    request.events.push_back(bogus);
    EXPECT_NE(ExpectErrorFrame(client, WireOp::kIngestBatch, request).find("departure"),
              std::string::npos);
  }
  // Every roster fault: ticks [applied, fault tick) apply, the faulty tick
  // draws a kError naming the fault, and the cursor stays on the prefix.
  Interval applied = 0;
  for (const PlannedFault& planned : plan) {
    SCOPED_TRACE(::testing::Message() << "fault " << static_cast<int>(planned.fault)
                                      << " at tick " << planned.tick);
    IngestBatchRequest request = HonestBatch(ticks0, 0, applied, planned.tick, window);
    request.until_tick = planned.tick + 1;
    std::vector<StreamEvent> faulty = ticks0[planned.tick];
    ASSERT_TRUE(InjectRosterFault(planned.fault, planned.tick, faulty));
    request.events.insert(request.events.end(), faulty.begin(), faulty.end());
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    const std::string message = ExpectErrorFrame(client, WireOp::kIngestBatch, request);
    EXPECT_NE(message.find(RosterFaultKeyword(planned.fault)), std::string::npos) << message;
    EXPECT_NE(message.find("at tick " + std::to_string(planned.tick)), std::string::npos)
        << message;

    // Re-pushing the first tick of the batch is stale now: the cursor moved
    // to the faulty tick.
    NetClient stale;
    ASSERT_TRUE(stale.Connect("127.0.0.1", port, &error)) << error;
    const std::string stale_message = ExpectErrorFrame(
        stale, WireOp::kIngestBatch, HonestBatch(ticks0, 0, applied, applied + 1, window));
    EXPECT_NE(stale_message.find("expected from tick " + std::to_string(planned.tick)),
              std::string::npos)
        << stale_message;
    applied = planned.tick;
  }
  {
    // Raw garbage bytes: not a CRFNET1 frame, connection dropped, no crash.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
    char buffer[256];
    // The server answers with a kError frame (or just closes); either way
    // the connection reaches EOF without wedging.
    while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
    }
    ::close(fd);
  }

  // Finish the window honestly: machine 0 from its cursor, every other
  // machine from the window start. The window then commits cell-wide.
  NetClient finisher;
  ASSERT_TRUE(finisher.Connect("127.0.0.1", port, &error)) << error;
  for (int m = 0; m < cell.num_machines(); ++m) {
    const Interval from = m == 0 ? applied : 0;
    ASSERT_TRUE(
        finisher.IngestBatch(HonestBatch(MachineTicks(cell, m), m, from, window, window), &error)
            .has_value())
        << "machine " << m << ": " << error;
  }

  // After all that abuse a well-behaved client still gets clean service.
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, TestLoadGenOptions(port), &report)) << report.error;
  EXPECT_TRUE(report.verified);
  EXPECT_GE(harness.server->net_metrics().frames_rejected(),
            static_cast<uint64_t>(plan.size() * 2 + 3));
  harness.server->Wait();
}

// A validation error mid-batch must leave the shard's streaming cursor on
// the applied prefix: the ticks before the bad one are ingested, a fresh
// client resumes at the first unapplied tick, and a replay of an
// already-applied tick draws a kError — never a CHECK abort (the cursor
// and the replayer can never disagree about what was applied).
TEST(NetServerProtocolTest, MidBatchErrorLeavesCursorOnAppliedPrefix) {
  const CellTrace cell = RandomCell(707);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("limit-sum", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);
  const int port = harness.server->port();
  const auto ticks0 = MachineTicks(cell, 0);

  std::string error;
  {
    // Ticks [0, 2) for machine 0, tick 1 corrupted by a trailing departure
    // of a non-resident task: tick 0 applies, tick 1 is rejected.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request = HonestBatch(ticks0, 0, 0, 2, cell.num_intervals);
    StreamEvent bogus;
    bogus.kind = StreamEventKind::kTaskDeparture;
    bogus.task_index = 999999;
    bogus.tick = 1;
    bogus.task_id = 999999;
    bogus.limit = 0.5;
    request.events.push_back(bogus);
    EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
  }
  {
    // Replaying the already-applied tick 0 is out of protocol now; the
    // server must answer with an error frame, not abort.
    NetClient stale;
    ASSERT_TRUE(stale.Connect("127.0.0.1", port, &error)) << error;
    const IngestBatchRequest request = HonestBatch(ticks0, 0, 0, 1, cell.num_intervals);
    EXPECT_FALSE(stale.IngestBatch(request, &error).has_value());
    EXPECT_NE(error.find("expected from tick 1"), std::string::npos) << error;
  }
  {
    // Resuming at the first unapplied tick streams on cleanly.
    NetClient resume;
    ASSERT_TRUE(resume.Connect("127.0.0.1", port, &error)) << error;
    const auto response =
        resume.IngestBatch(HonestBatch(ticks0, 0, 1, 2, cell.num_intervals), &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->last_tick, 1);
  }
  harness.server->RequestStop();
}

// Frame-sequence fuzz against a live server. A seeded driver streams the
// window [0, W) the way a client may — shards interleaved, batches of random
// length, connections dropped and reopened mid-window — and mixes in frames
// that break the protocol: resuming a machine at the wrong tick, re-pushing
// a stale tick, streaming a shard's machines out of order, a mismatched
// window boundary, pushing to a shard whose window awaits the cell-wide
// commit, and a roster fault mid-batch. The driver keeps a model of every
// shard's cursor, so each honest frame must succeed and each bad one must
// draw a kError frame while moving the cursor exactly as the model says
// (only a roster fault applies its honest prefix). The server must never
// abort; a clean loadgen afterwards must verify bit-identity, and a seal
// requested mid-window is refused with a kError.
class NetServerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(NetServerFuzzTest, FrameSequencesNeverAbortAndKeepBitIdentity) {
  const uint64_t seed = 900 + static_cast<uint64_t>(GetParam());
  const CellTrace cell = RandomCell(seed);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("max(n-sigma:5,rc-like:99)", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec, TempPath("fuzz.ckpt"));
  ASSERT_TRUE(harness.started);
  const int port = harness.server->port();
  const Interval num_intervals = cell.num_intervals;
  const int num_machines = cell.num_machines();
  std::vector<std::vector<std::vector<StreamEvent>>> ticks;
  for (int m = 0; m < num_machines; ++m) {
    ticks.push_back(MachineTicks(cell, m));
  }
  Rng rng(seed);
  const Interval window = 2 + static_cast<Interval>(rng.UniformInt(num_intervals / 2));

  // The model: the server's contiguous shard blocks and each shard's cursor.
  struct ShardModel {
    int begin = 0;
    int end = 0;
    bool open = false;
    bool completed = false;
    int next_machine = 0;
    Interval machine_tick = 0;
  };
  const int num_shards = TestReplayOptions().num_shards;
  const int block = std::max((num_machines + num_shards - 1) / num_shards, 1);
  std::vector<ShardModel> shards;
  for (int s = 0; s < num_shards; ++s) {
    ShardModel shard;
    shard.begin = std::min(s * block, num_machines);
    shard.end = std::min((s + 1) * block, num_machines);
    shard.completed = shard.begin == shard.end;  // empty: nothing to stream
    shards.push_back(shard);
  }

  NetClient clients[3];
  std::string error;
  const auto client_for = [&](int k) -> NetClient& {
    if (!clients[k].connected()) {
      EXPECT_TRUE(clients[k].Connect("127.0.0.1", port, &error)) << error;
    }
    return clients[k];
  };

  int honest_frames = 0;
  int bad_frames = 0;
  for (int step = 0; step < 20000; ++step) {
    std::vector<int> streaming;
    std::vector<int> awaiting_commit;
    for (int s = 0; s < num_shards; ++s) {
      if (!shards[s].completed) {
        streaming.push_back(s);
      } else if (shards[s].begin != shards[s].end) {
        awaiting_commit.push_back(s);
      }
    }
    if (streaming.empty()) {
      break;  // the window committed cell-wide with the last shard
    }
    NetClient& client = client_for(static_cast<int>(rng.UniformInt(3)));
    ShardModel& shard = shards[streaming[rng.UniformInt(streaming.size())]];
    // The first ingest frame a shard sees opens its window, whatever else is
    // wrong with the frame, and starts the cursor at its first machine.
    const bool was_open = shard.open;
    if (!was_open) {
      shard.next_machine = shard.begin;
      shard.machine_tick = 0;
    }
    const int machine = shard.next_machine;
    const Interval from = shard.machine_tick;
    const Interval until =
        std::min<Interval>(from + 1 + static_cast<Interval>(rng.UniformInt(6)), window);
    const auto& machine_ticks = ticks[machine];
    const int kind = static_cast<int>(rng.UniformInt(10));
    SCOPED_TRACE(::testing::Message() << "step " << step << " kind " << kind << " machine "
                                      << machine << " ticks [" << from << ", " << until << ")");

    if (kind == 0 || kind == 4 || kind == 5) {
      // Frames that leave this shard alone: a reconnect mid-window, a
      // window mismatch (sent only once the window is open, or it would
      // open with the wrong boundary), and a push to another shard.
      if (kind == 0) {
        client.Close();
      } else if (kind == 4 && was_open) {
        const std::string message =
            ExpectErrorFrame(client, WireOp::kIngestBatch,
                             HonestBatch(machine_ticks, machine, from, until, window + 1));
        EXPECT_NE(message.find("window"), std::string::npos) << message;
        ++bad_frames;
      } else if (kind == 5 && !awaiting_commit.empty()) {
        // Push to a shard that finished the window before the cell did.
        const ShardModel& done = shards[awaiting_commit[rng.UniformInt(awaiting_commit.size())]];
        const std::string message =
            ExpectErrorFrame(client, WireOp::kIngestBatch,
                             HonestBatch(ticks[done.begin], done.begin, 0, 1, window));
        EXPECT_NE(message.find("not yet committed"), std::string::npos) << message;
        ++bad_frames;
      }
      continue;
    }
    shard.open = true;
    if (kind == 1 && from + 1 < window) {
      // Resume the machine at the wrong tick (ahead of its cursor).
      const Interval wrong = from + 1 + static_cast<Interval>(rng.UniformInt(window - from - 1));
      const std::string message =
          ExpectErrorFrame(client, WireOp::kIngestBatch,
                           HonestBatch(machine_ticks, machine, wrong, wrong + 1, window));
      EXPECT_NE(message.find("expected from tick"), std::string::npos) << message;
      ++bad_frames;
    } else if (kind == 2 && from > 0) {
      // Re-push a stale tick the server already holds.
      const Interval stale = static_cast<Interval>(rng.UniformInt(from));
      const std::string message =
          ExpectErrorFrame(client, WireOp::kIngestBatch,
                           HonestBatch(machine_ticks, machine, stale, stale + 1, window));
      EXPECT_NE(message.find("expected from tick"), std::string::npos) << message;
      ++bad_frames;
    } else if (kind == 3 && (machine + 1 < shard.end || machine > shard.begin)) {
      // Interleave machines inside a shard: the next one early, or a
      // finished one again.
      const int other = machine + 1 < shard.end ? machine + 1 : machine - 1;
      const std::string message =
          ExpectErrorFrame(client, WireOp::kIngestBatch,
                           HonestBatch(ticks[other], other, from, until, window));
      EXPECT_NE(message.find("out of order"), std::string::npos) << message;
      ++bad_frames;
    } else if (kind == 6) {
      // A roster fault at a random tick of the batch: the honest prefix
      // applies, the faulty tick does not.
      const Interval faulty = from + static_cast<Interval>(rng.UniformInt(until - from));
      IngestBatchRequest request = HonestBatch(machine_ticks, machine, from, faulty, window);
      request.until_tick = until;
      std::vector<StreamEvent> corrupt = machine_ticks[faulty];
      RosterFault fault = RosterFault::kExtraSample;
      for (int tries = 0; tries < 8; ++tries) {
        const RosterFault pick =
            kAllRosterFaults[rng.UniformInt(std::size(kAllRosterFaults))];
        std::vector<StreamEvent> probe = corrupt;
        if (InjectRosterFault(pick, faulty, probe)) {
          fault = pick;
          break;
        }
      }
      ASSERT_TRUE(InjectRosterFault(fault, faulty, corrupt));
      request.events.insert(request.events.end(), corrupt.begin(), corrupt.end());
      for (Interval tau = faulty + 1; tau < until; ++tau) {
        request.events.insert(request.events.end(), machine_ticks[tau].begin(),
                              machine_ticks[tau].end());
      }
      const std::string message = ExpectErrorFrame(client, WireOp::kIngestBatch, request);
      EXPECT_NE(message.find(RosterFaultKeyword(fault)), std::string::npos) << message;
      shard.machine_tick = faulty;
      ++bad_frames;
    } else {
      // An honest batch continues the machine.
      const auto response =
          client.IngestBatch(HonestBatch(machine_ticks, machine, from, until, window), &error);
      ASSERT_TRUE(response.has_value()) << error;
      EXPECT_EQ(response->last_tick, until - 1);
      shard.machine_tick = until;
      if (until == window) {
        ++shard.next_machine;
        shard.machine_tick = 0;
        if (shard.next_machine == shard.end) {
          shard.completed = true;
          shard.open = false;
        }
      }
      ++honest_frames;
    }
  }
  EXPECT_GT(bad_frames, 0);
  EXPECT_GT(honest_frames, 0);
  for (NetClient& client : clients) {
    client.Close();
  }

  // The model says the window committed; the server agrees.
  NetClient control;
  ASSERT_TRUE(control.Connect("127.0.0.1", port, &error)) << error;
  const auto hello = control.Hello(HelloRequest{}, &error);
  ASSERT_TRUE(hello.has_value()) << error;
  ASSERT_EQ(hello->next_tick, window);

  // A clean loadgen streams on to `until` and verifies bit-identity.
  const Interval until = window + (num_intervals - window) / 2;
  LoadGenOptions options = TestLoadGenOptions(port);
  options.until = until;
  options.send_shutdown = false;
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, options, &report)) << report.error;
  EXPECT_TRUE(report.verified) << report.mismatched_machines << " machines mismatched";

  // Open the next window with one tick of machine 0, then ask for a seal:
  // refused with a kError, and the server still stops cleanly.
  ASSERT_TRUE(
      control.IngestBatch(HonestBatch(ticks[0], 0, until, until + 1, num_intervals), &error)
          .has_value())
      << error;
  const std::string message = ExpectErrorFrame(control, WireOp::kShutdown, ShutdownRequest{});
  EXPECT_NE(message.find("cannot seal"), std::string::npos) << message;
  harness.server->Wait();
  EXPECT_FALSE(harness.server->sealed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetServerFuzzTest, ::testing::Range(0, 6));

// The window protocol: a second batch must continue the machine at its next
// tick and keep the window boundary every shard agreed on.
TEST(NetServerProtocolTest, WindowMismatchIsRejected) {
  const CellTrace cell = RandomCell(505);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("limit-sum", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);
  const auto ticks0 = MachineTicks(cell, 0);

  std::string error;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  ASSERT_TRUE(
      client.IngestBatch(HonestBatch(ticks0, 0, 0, 2, cell.num_intervals), &error).has_value())
      << error;

  // Same machine, right tick, but a different window boundary.
  EXPECT_FALSE(
      client.IngestBatch(HonestBatch(ticks0, 0, 2, 3, cell.num_intervals - 1), &error)
          .has_value());
  EXPECT_NE(error.find("window"), std::string::npos) << error;
  harness.server->RequestStop();
}

// Admission checks answer against the live predicted peak: a zero-size task
// fits iff the machine has headroom, an absurd one never does, and the
// reported headroom is capacity - predicted_peak.
TEST(NetServerQueryTest, AdmissionCheckUsesPredictedPeakHeadroom) {
  const CellTrace cell = RandomCell(606);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("n-sigma:3", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);

  LoadGenOptions options = TestLoadGenOptions(harness.server->port());
  options.send_shutdown = false;
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, options, &report)) << report.error;
  ASSERT_TRUE(report.verified);

  std::string error;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  AdmissionCheckRequest request;
  request.machine = 0;
  request.task_limit = 1e9;
  auto verdict = client.AdmissionCheck(request, &error);
  ASSERT_TRUE(verdict.has_value()) << error;
  EXPECT_FALSE(verdict->admitted);
  EXPECT_EQ(verdict->capacity, cell.machine_capacity(0));
  EXPECT_EQ(verdict->headroom, verdict->capacity - verdict->predicted_peak);

  request.task_limit = 0.0;
  verdict = client.AdmissionCheck(request, &error);
  ASSERT_TRUE(verdict.has_value()) << error;
  EXPECT_EQ(verdict->admitted, verdict->predicted_peak <= verdict->capacity);

  harness.server->RequestStop();
}

}  // namespace
}  // namespace crf
