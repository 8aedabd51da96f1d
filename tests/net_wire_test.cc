// CRFNET1 framing contract (crf/net/wire.h): every op round-trips through
// AppendFrame → DecodeFrame → DecodePayload bit-exactly; every damaged
// frame — truncation, bit flip, bad magic, oversized length — is rejected
// (or surfaces as a harmless different-op frame the dispatcher rejects),
// never decoded as the original message and never a crash. Mirrors the
// corruption suite of stream_checkpoint_test for the wire layer.

#include "crf/net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "crf/util/byte_io.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

constexpr size_t kHeaderBytes = 32;

template <typename T>
std::vector<uint8_t> Frame(WireOp op, const T& message) {
  ByteWriter payload;
  payload.Field(message);
  std::vector<uint8_t> out;
  AppendFrame(op, payload, out);
  return out;
}

// Decodes one complete frame and its payload into `out`, asserting success.
template <typename T>
void MustDecode(const std::vector<uint8_t>& frame, WireOp expected_op, T& out) {
  WireOp op = WireOp::kError;
  std::span<const uint8_t> payload;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(frame, &op, &payload, &consumed, &error), FrameStatus::kFrame)
      << error;
  EXPECT_EQ(op, expected_op);
  EXPECT_EQ(consumed, frame.size());
  ASSERT_TRUE(DecodePayload(payload, out));
}

IngestBatchRequest SampleIngest() {
  IngestBatchRequest request;
  request.machine = 3;
  request.from_tick = 10;
  request.until_tick = 12;
  request.window_until = 20;
  StreamEvent departure;
  departure.kind = StreamEventKind::kTaskDeparture;
  departure.task_index = 7;
  departure.tick = 10;
  departure.task_id = 1007;
  departure.limit = 0.5;
  StreamEvent arrival;
  arrival.kind = StreamEventKind::kTaskArrival;
  arrival.task_index = 9;
  arrival.tick = 10;
  arrival.task_id = 1009;
  arrival.limit = 0.25;
  StreamEvent sample;
  sample.kind = StreamEventKind::kUsageSample;
  sample.task_index = 9;
  sample.tick = 11;
  sample.task_id = 1009;
  sample.usage = 0.125;
  sample.limit = 0.25;
  request.events = {departure, arrival, sample};
  return request;
}

TEST(NetWireTest, HeaderIsThirtyTwoBytes) {
  const auto frame = Frame(WireOp::kCellQuery, CellQueryRequest{});
  EXPECT_EQ(frame.size(), kHeaderBytes);  // empty payload: header only
}

TEST(NetWireTest, HelloRoundTrips) {
  HelloRequest request;
  request.client_name = "unit-test";
  HelloRequest out;
  MustDecode(Frame(WireOp::kHello, request), WireOp::kHello, out);
  EXPECT_EQ(out.client_name, "unit-test");

  HelloResponse response;
  response.trace_name = "cell_a";
  response.spec_name = "max(n-sigma-5,rc-like-p99)";
  response.num_machines = 40;
  response.num_intervals = 576;
  response.num_shards = 8;
  response.next_tick = 288;
  HelloResponse decoded;
  MustDecode(Frame(WireOp::kHello, response), WireOp::kHello, decoded);
  EXPECT_EQ(decoded.trace_name, response.trace_name);
  EXPECT_EQ(decoded.spec_name, response.spec_name);
  EXPECT_EQ(decoded.num_machines, response.num_machines);
  EXPECT_EQ(decoded.num_intervals, response.num_intervals);
  EXPECT_EQ(decoded.num_shards, response.num_shards);
  EXPECT_EQ(decoded.next_tick, response.next_tick);
}

TEST(NetWireTest, IngestBatchRoundTripsEveryEventField) {
  const IngestBatchRequest request = SampleIngest();
  IngestBatchRequest out;
  MustDecode(Frame(WireOp::kIngestBatch, request), WireOp::kIngestBatch, out);
  EXPECT_EQ(out.machine, request.machine);
  EXPECT_EQ(out.from_tick, request.from_tick);
  EXPECT_EQ(out.until_tick, request.until_tick);
  EXPECT_EQ(out.window_until, request.window_until);
  ASSERT_EQ(out.events.size(), request.events.size());
  for (size_t i = 0; i < request.events.size(); ++i) {
    EXPECT_EQ(out.events[i].kind, request.events[i].kind);
    // The machine field is implied by the request, not shipped per event.
    EXPECT_EQ(out.events[i].machine, request.machine);
    EXPECT_EQ(out.events[i].task_index, request.events[i].task_index);
    EXPECT_EQ(out.events[i].tick, request.events[i].tick);
    EXPECT_EQ(out.events[i].task_id, request.events[i].task_id);
    EXPECT_EQ(out.events[i].usage, request.events[i].usage);
    EXPECT_EQ(out.events[i].limit, request.events[i].limit);
  }
}

TEST(NetWireTest, QueryAdmissionMetricsShutdownErrorRoundTrip) {
  MachineQueryRequest mq;
  mq.machine = 11;
  MachineQueryRequest mq_out;
  MustDecode(Frame(WireOp::kMachineQuery, mq), WireOp::kMachineQuery, mq_out);
  EXPECT_EQ(mq_out.machine, 11);

  MachineQueryResponse mr;
  mr.last_tick = 41;
  mr.prediction = 3.25;
  mr.limit_sum = 7.5;
  mr.roster_size = 12;
  mr.roster_hash = 0xdeadbeefcafef00dull;
  MachineQueryResponse mr_out;
  MustDecode(Frame(WireOp::kMachineQuery, mr), WireOp::kMachineQuery, mr_out);
  EXPECT_EQ(mr_out.last_tick, mr.last_tick);
  EXPECT_EQ(mr_out.prediction, mr.prediction);
  EXPECT_EQ(mr_out.roster_hash, mr.roster_hash);

  CellQueryResponse cr;
  cr.num_machines = 40;
  cr.min_last_tick = 5;
  cr.max_last_tick = 9;
  cr.prediction_sum = 101.5;
  cr.limit_sum = 200.25;
  cr.events_ingested = 123456;
  CellQueryResponse cr_out;
  MustDecode(Frame(WireOp::kCellQuery, cr), WireOp::kCellQuery, cr_out);
  EXPECT_EQ(cr_out.events_ingested, cr.events_ingested);
  EXPECT_EQ(cr_out.prediction_sum, cr.prediction_sum);

  AdmissionCheckRequest ar;
  ar.machine = 2;
  ar.task_limit = 0.75;
  AdmissionCheckRequest ar_out;
  MustDecode(Frame(WireOp::kAdmissionCheck, ar), WireOp::kAdmissionCheck, ar_out);
  EXPECT_EQ(ar_out.task_limit, 0.75);

  AdmissionCheckResponse av;
  av.admitted = true;
  av.predicted_peak = 0.5;
  av.capacity = 1.0;
  av.headroom = 0.5;
  AdmissionCheckResponse av_out;
  MustDecode(Frame(WireOp::kAdmissionCheck, av), WireOp::kAdmissionCheck, av_out);
  EXPECT_TRUE(av_out.admitted);
  EXPECT_EQ(av_out.headroom, 0.5);

  MetricsSnapshotResponse ms;
  ms.json = "{\"cell\": \"a\"}";
  MetricsSnapshotResponse ms_out;
  MustDecode(Frame(WireOp::kMetricsSnapshot, ms), WireOp::kMetricsSnapshot, ms_out);
  EXPECT_EQ(ms_out.json, ms.json);

  ShutdownRequest sr;
  sr.seal_checkpoint = false;
  ShutdownRequest sr_out;
  MustDecode(Frame(WireOp::kShutdown, sr), WireOp::kShutdown, sr_out);
  EXPECT_FALSE(sr_out.seal_checkpoint);

  ShutdownResponse sd;
  sd.sealed = true;
  sd.next_tick = 576;
  sd.checkpoint_path = "/tmp/x.ckpt";
  ShutdownResponse sd_out;
  MustDecode(Frame(WireOp::kShutdown, sd), WireOp::kShutdown, sd_out);
  EXPECT_TRUE(sd_out.sealed);
  EXPECT_EQ(sd_out.checkpoint_path, "/tmp/x.ckpt");

  ErrorResponse er;
  er.message = "bad tick";
  ErrorResponse er_out;
  MustDecode(Frame(WireOp::kError, er), WireOp::kError, er_out);
  EXPECT_EQ(er_out.message, "bad tick");
}

TEST(NetWireTest, BackToBackFramesDecodeSequentially) {
  std::vector<uint8_t> buffer = Frame(WireOp::kCellQuery, CellQueryRequest{});
  const auto second = Frame(WireOp::kIngestBatch, SampleIngest());
  buffer.insert(buffer.end(), second.begin(), second.end());

  WireOp op = WireOp::kError;
  std::span<const uint8_t> payload;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(buffer, &op, &payload, &consumed, nullptr), FrameStatus::kFrame);
  EXPECT_EQ(op, WireOp::kCellQuery);
  const std::span<const uint8_t> rest(buffer.data() + consumed, buffer.size() - consumed);
  ASSERT_EQ(DecodeFrame(rest, &op, &payload, &consumed, nullptr), FrameStatus::kFrame);
  EXPECT_EQ(op, WireOp::kIngestBatch);
  EXPECT_EQ(consumed, rest.size());
}

// Field-by-field reference for the ingest payload layout, independent of
// ByteWriter: every integer is shifted out byte by byte, little-endian.
void PutLe(std::vector<uint8_t>& out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

std::vector<uint8_t> ReferenceIngestPayload(const IngestBatchRequest& request) {
  std::vector<uint8_t> out;
  PutLe(out, static_cast<uint32_t>(request.machine), 4);
  PutLe(out, static_cast<uint32_t>(request.from_tick), 4);
  PutLe(out, static_cast<uint32_t>(request.until_tick), 4);
  PutLe(out, static_cast<uint32_t>(request.window_until), 4);
  PutLe(out, request.events.size(), 8);
  for (const StreamEvent& event : request.events) {
    PutLe(out, static_cast<uint8_t>(event.kind), 1);
    PutLe(out, static_cast<uint32_t>(event.task_index), 4);
    PutLe(out, static_cast<uint32_t>(event.tick), 4);
    PutLe(out, static_cast<uint64_t>(event.task_id), 8);
    PutLe(out, std::bit_cast<uint64_t>(event.usage), 8);
    PutLe(out, std::bit_cast<uint64_t>(event.limit), 8);
  }
  return out;
}

// A seeded batch whose fields include the extremes: zero, the largest
// int32 / int64, subnormal and huge doubles.
IngestBatchRequest EdgeIngest() {
  constexpr int32_t kMaxI32 = std::numeric_limits<int32_t>::max();
  constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
  const double values[] = {0.0, kSubnormal, 3 * kSubnormal, 0.5, 1e300,
                           std::numeric_limits<double>::max()};
  const int32_t indices[] = {0, 1, kMaxI32 - 1, kMaxI32};
  const TaskId ids[] = {0, -1, std::numeric_limits<TaskId>::max(), 1 << 20};
  Rng rng(20261017);
  IngestBatchRequest request;
  request.machine = kMaxI32;
  request.from_tick = 0;
  request.until_tick = kMaxI32 - 1;
  request.window_until = kMaxI32;
  for (int i = 0; i < 200; ++i) {
    StreamEvent event;
    event.kind = static_cast<StreamEventKind>(rng.UniformInt(3));
    event.task_index = indices[rng.UniformInt(std::size(indices))];
    event.tick = i < 100 ? 0 : kMaxI32 - 2;
    event.task_id = ids[rng.UniformInt(std::size(ids))];
    event.usage = values[rng.UniformInt(std::size(values))];
    event.limit = values[rng.UniformInt(std::size(values))];
    request.events.push_back(event);
  }
  return request;
}

TEST(NetWireTest, IngestEncodingMatchesTheFieldByFieldLayout) {
  const IngestBatchRequest request = EdgeIngest();
  ByteWriter payload;
  payload.Field(request);
  const std::vector<uint8_t> expected = ReferenceIngestPayload(request);
  EXPECT_EQ(expected.size(), 24 + 33 * request.events.size());
  EXPECT_EQ(payload.bytes(), expected);

  // The edge values survive decoding bit for bit.
  IngestBatchRequest out;
  ASSERT_TRUE(DecodePayload(std::span<const uint8_t>(payload.bytes()), out));
  ASSERT_EQ(out.events.size(), request.events.size());
  for (size_t i = 0; i < request.events.size(); ++i) {
    EXPECT_EQ(out.events[i].task_index, request.events[i].task_index);
    EXPECT_EQ(out.events[i].task_id, request.events[i].task_id);
    EXPECT_EQ(std::bit_cast<uint64_t>(out.events[i].usage),
              std::bit_cast<uint64_t>(request.events[i].usage));
    EXPECT_EQ(std::bit_cast<uint64_t>(out.events[i].limit),
              std::bit_cast<uint64_t>(request.events[i].limit));
  }
}

TEST(NetWireTest, InPlaceFrameEqualsCopiedFrameAndCarriesVersionTwo) {
  const IngestBatchRequest request = EdgeIngest();
  // Appended after an existing frame, as a connection's reused buffer is.
  std::vector<uint8_t> in_place = Frame(WireOp::kCellQuery, CellQueryRequest{});
  std::vector<uint8_t> copied = in_place;
  AppendMessageFrame(WireOp::kIngestBatch, request, in_place);
  ByteWriter payload;
  payload.Field(request);
  AppendFrame(WireOp::kIngestBatch, payload, copied);
  EXPECT_EQ(in_place, copied);

  const std::span<const uint8_t> frame(in_place.data() + kHeaderBytes,
                                       in_place.size() - kHeaderBytes);
  uint32_t version = 0;
  uint64_t payload_bytes = 0;
  uint64_t payload_hash = 0;
  std::memcpy(&version, frame.data() + 8, sizeof(version));
  std::memcpy(&payload_bytes, frame.data() + 16, sizeof(payload_bytes));
  std::memcpy(&payload_hash, frame.data() + 24, sizeof(payload_hash));
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(payload_bytes, payload.size());
  EXPECT_EQ(payload_hash, Xxh64(payload.bytes()));
}

// Frames `message` in place, checks that the frame decodes and re-encodes
// to the same bytes, and returns the frame's XXH64.
template <typename T>
uint64_t PinnedFrameHash(WireOp op, const T& message) {
  std::vector<uint8_t> frame;
  AppendMessageFrame(op, message, frame);
  T decoded;
  MustDecode(frame, op, decoded);
  std::vector<uint8_t> again;
  AppendMessageFrame(op, decoded, again);
  EXPECT_EQ(again, frame) << WireOpName(op);
  return Xxh64(frame);
}

// The wire is a file format between builds: pins the bytes of one frame of
// every message type, each filled with edge values its decoder still
// accepts (extreme integers, signed zero, subnormal, infinite and NaN
// doubles where no check forbids them, embedded NUL and high bytes).
TEST(NetWireGoldenTest, EveryMessageFrameMatchesRecordedHash) {
  constexpr int32_t kMaxI32 = std::numeric_limits<int32_t>::max();
  constexpr int32_t kMinI32 = std::numeric_limits<int32_t>::min();
  constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
  constexpr double kHuge = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::bit_cast<double>(uint64_t{0x7ff8000000000123});
  const std::string bytes("a\0\xff\x7f z", 6);

  EXPECT_EQ(PinnedFrameHash(WireOp::kHello, HelloRequest{bytes}), 0x7b6a1aa8d4ada739ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kHello,
                            HelloResponse{"", bytes, kMaxI32, 0, 1, kMaxI32 - 1}),
            0xfc4ebdb40a9def8aull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kIngestBatch, EdgeIngest()), 0x2c9657ef76b8ed07ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kIngestBatch, IngestBatchResponse{nan, -0.0, kMinI32}),
            0xe52ccace8779c0d6ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kMachineQuery, MachineQueryRequest{kMaxI32}),
            0xf1e426b081548b66ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kMachineQuery,
                            MachineQueryResponse{-1, -kInf, kSubnormal, kMaxI32,
                                                 std::numeric_limits<uint64_t>::max()}),
            0x445f4facdd728f49ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kCellQuery, CellQueryRequest{}), 0x9f5c680b91294618ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kCellQuery,
                            CellQueryResponse{0, kMinI32, kMaxI32, kHuge, nan, uint64_t{1} << 63}),
            0xc7b279bb14980eb0ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kAdmissionCheck, AdmissionCheckRequest{0, kHuge}),
            0x61d21cfe5f4ec56full);
  EXPECT_EQ(PinnedFrameHash(WireOp::kAdmissionCheck,
                            AdmissionCheckResponse{true, kSubnormal, -0.0, -kHuge}),
            0x61a53b680c3df00aull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kMetricsSnapshot, MetricsSnapshotRequest{}),
            0xa6a5133f239702e5ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kMetricsSnapshot,
                            MetricsSnapshotResponse{"{\"net\": {}}" + bytes}),
            0xf78db9a89c2295edull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kShutdown, ShutdownRequest{false}), 0x63f964add3ce9192ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kShutdown, ShutdownResponse{true, kMaxI32, bytes}),
            0x91b12b18df029627ull);
  EXPECT_EQ(PinnedFrameHash(WireOp::kError, ErrorResponse{""}), 0xc195c62ad5872d6full);
}

TEST(NetWireCorruptionTest, VersionOneFrameIsRejectedByVersion) {
  auto frame = Frame(WireOp::kIngestBatch, SampleIngest());
  const uint32_t version_one = 1;
  std::memcpy(frame.data() + 8, &version_one, sizeof(version_one));
  WireOp op;
  std::span<const uint8_t> payload;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(frame, &op, &payload, &consumed, &error), FrameStatus::kMalformed);
  EXPECT_EQ(error, "unsupported wire version 1 (expected 2)");
}

TEST(NetWireCorruptionTest, EveryTruncationNeedsMoreBytes) {
  const auto frame = Frame(WireOp::kIngestBatch, SampleIngest());
  // A proper prefix of a valid frame is by definition incomplete, never
  // malformed — the receiver must keep the connection and read on.
  for (size_t len = 0; len < frame.size(); ++len) {
    WireOp op;
    std::span<const uint8_t> payload;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(frame.data(), len), &op, &payload,
                          &consumed, &error),
              FrameStatus::kNeedMore)
        << "prefix length " << len << ": " << error;
  }
}

TEST(NetWireCorruptionTest, EveryBitFlipIsRejectedOrChangesTheFrame) {
  const auto frame = Frame(WireOp::kIngestBatch, SampleIngest());
  WireOp base_op;
  std::span<const uint8_t> base_payload;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame, &base_op, &base_payload, &consumed, nullptr),
            FrameStatus::kFrame);
  const std::vector<uint8_t> original(base_payload.begin(), base_payload.end());

  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> damaged = frame;
      damaged[byte] ^= static_cast<uint8_t>(1u << bit);
      WireOp op;
      std::span<const uint8_t> payload;
      std::string error;
      const FrameStatus status = DecodeFrame(damaged, &op, &payload, &consumed, &error);
      if (status != FrameStatus::kFrame) {
        continue;  // rejected outright (malformed) or now incomplete
      }
      // The only surviving flips may change the op byte to another valid op
      // (the payload hash does not cover the header op); the dispatcher then
      // rejects the payload. What can never happen is the original message
      // decoding as if undamaged.
      const bool same = op == base_op && payload.size() == original.size() &&
                        std::memcmp(payload.data(), original.data(), original.size()) == 0;
      EXPECT_FALSE(same) << "byte " << byte << " bit " << bit
                         << " flip decoded as the original frame";
    }
  }
}

TEST(NetWireCorruptionTest, BadMagicIsMalformedOnFirstDivergentByte) {
  auto frame = Frame(WireOp::kHello, HelloRequest{});
  frame[0] = 'X';
  WireOp op;
  std::span<const uint8_t> payload;
  size_t consumed = 0;
  std::string error;
  // Even a one-byte buffer with a wrong first byte is immediately malformed:
  // the peer is not speaking CRFNET1, so there is no point waiting.
  EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(frame.data(), 1), &op, &payload, &consumed,
                        &error),
            FrameStatus::kMalformed);
  EXPECT_EQ(DecodeFrame(frame, &op, &payload, &consumed, &error), FrameStatus::kMalformed);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(NetWireCorruptionTest, OversizedLengthIsMalformedBeforePayloadArrives) {
  auto frame = Frame(WireOp::kHello, HelloRequest{});
  // payload_bytes lives at header offset 16 (after magic, version, op,
  // flags, reserved); write a length beyond the hard cap.
  const uint64_t huge = kMaxFramePayload + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  WireOp op;
  std::span<const uint8_t> payload;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(frame.data(), kHeaderBytes), &op, &payload,
                        &consumed, &error),
            FrameStatus::kMalformed);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(NetWireCorruptionTest, UnknownVersionOpAndNonzeroReservedAreMalformed) {
  WireOp op;
  std::span<const uint8_t> payload;
  size_t consumed = 0;
  std::string error;

  auto version_frame = Frame(WireOp::kHello, HelloRequest{});
  version_frame[8] = 99;  // version field
  EXPECT_EQ(DecodeFrame(version_frame, &op, &payload, &consumed, &error),
            FrameStatus::kMalformed);

  auto op_frame = Frame(WireOp::kHello, HelloRequest{});
  op_frame[12] = 200;  // op field
  EXPECT_EQ(DecodeFrame(op_frame, &op, &payload, &consumed, &error), FrameStatus::kMalformed);

  auto flags_frame = Frame(WireOp::kHello, HelloRequest{});
  flags_frame[13] = 1;  // flags must be zero in version 1
  EXPECT_EQ(DecodeFrame(flags_frame, &op, &payload, &consumed, &error),
            FrameStatus::kMalformed);
}

TEST(NetWireCorruptionTest, IngestPayloadValidationRejectsProtocolViolations) {
  const auto decode = [](const IngestBatchRequest& request) {
    ByteWriter payload;
    payload.Field(request);
    IngestBatchRequest out;
    return DecodePayload(std::span<const uint8_t>(payload.bytes()), out);
  };

  EXPECT_TRUE(decode(SampleIngest()));

  IngestBatchRequest bad = SampleIngest();
  bad.machine = -1;
  EXPECT_FALSE(decode(bad));

  bad = SampleIngest();
  bad.until_tick = bad.from_tick;  // empty tick range
  EXPECT_FALSE(decode(bad));

  bad = SampleIngest();
  bad.window_until = bad.until_tick - 1;  // batch past the window
  EXPECT_FALSE(decode(bad));

  bad = SampleIngest();
  bad.events[2].tick = bad.events[0].tick - 1;  // tick order regression
  EXPECT_FALSE(decode(bad));

  bad = SampleIngest();
  bad.events[0].tick = bad.from_tick - 1;  // event before the range
  EXPECT_FALSE(decode(bad));

  bad = SampleIngest();
  bad.events[1].task_index = -5;
  EXPECT_FALSE(decode(bad));

  bad = SampleIngest();
  bad.events[2].usage = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(decode(bad));

  bad = SampleIngest();
  bad.events[2].limit = -0.5;
  EXPECT_FALSE(decode(bad));
}

TEST(NetWireCorruptionTest, TrailingPayloadBytesAreRejected) {
  ByteWriter payload;
  payload.Field(MachineQueryRequest{});
  std::vector<uint8_t> padded(payload.bytes().begin(), payload.bytes().end());
  padded.push_back(0);
  MachineQueryRequest out;
  EXPECT_FALSE(DecodePayload(std::span<const uint8_t>(padded), out));
}

// Seeded mutation fuzz: random valid frames, randomly damaged — truncated,
// bit-flipped, spliced with garbage — must always classify without crashing,
// and any frame that survives to kFrame must payload-decode cleanly or fail
// cleanly (latched byte_io failure, no aborts).
TEST(NetWireFuzzTest, SeededMutationsNeverCrashTheDecoder) {
  Rng rng(20260808);
  for (int round = 0; round < 2000; ++round) {
    IngestBatchRequest request;
    request.machine = static_cast<int32_t>(rng.UniformInt(64));
    request.from_tick = static_cast<Interval>(rng.UniformInt(100));
    request.until_tick = request.from_tick + 1 + static_cast<Interval>(rng.UniformInt(4));
    request.window_until = request.until_tick + static_cast<Interval>(rng.UniformInt(4));
    const int num_events = static_cast<int>(rng.UniformInt(6));
    for (int i = 0; i < num_events; ++i) {
      StreamEvent event;
      event.kind = static_cast<StreamEventKind>(rng.UniformInt(3));
      event.task_index = static_cast<int32_t>(rng.UniformInt(1000));
      event.tick = request.from_tick + static_cast<Interval>(rng.UniformInt(
                                           request.until_tick - request.from_tick));
      event.task_id = static_cast<TaskId>(rng.UniformInt(1 << 20));
      event.usage = rng.UniformDouble();
      event.limit = rng.UniformDouble();
      request.events.push_back(event);
    }
    std::sort(request.events.begin(), request.events.end(),
              [](const StreamEvent& a, const StreamEvent& b) { return a.tick < b.tick; });
    std::vector<uint8_t> frame = Frame(WireOp::kIngestBatch, request);

    switch (rng.UniformInt(3)) {
      case 0:  // truncate
        frame.resize(rng.UniformInt(frame.size() + 1));
        break;
      case 1: {  // flip 1-8 bits
        const int flips = 1 + static_cast<int>(rng.UniformInt(8));
        for (int i = 0; i < flips && !frame.empty(); ++i) {
          frame[rng.UniformInt(frame.size())] ^=
              static_cast<uint8_t>(1u << rng.UniformInt(8));
        }
        break;
      }
      default: {  // splice random garbage into the middle
        const size_t at = rng.UniformInt(frame.size() + 1);
        const int extra = static_cast<int>(rng.UniformInt(40));
        std::vector<uint8_t> garbage;
        for (int i = 0; i < extra; ++i) {
          garbage.push_back(static_cast<uint8_t>(rng.UniformInt(256)));
        }
        frame.insert(frame.begin() + static_cast<ptrdiff_t>(at), garbage.begin(),
                     garbage.end());
        break;
      }
    }

    WireOp op;
    std::span<const uint8_t> payload;
    size_t consumed = 0;
    std::string error;
    const FrameStatus status = DecodeFrame(frame, &op, &payload, &consumed, &error);
    if (status == FrameStatus::kFrame) {
      EXPECT_LE(consumed, frame.size());
      IngestBatchRequest out;
      DecodePayload(payload, out);  // must not crash; result may be false
    }
  }
}

}  // namespace
}  // namespace crf
