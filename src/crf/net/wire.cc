#include "crf/net/wire.h"

#include <cmath>
#include <cstring>

namespace crf {
namespace {

constexpr char kNetMagic[8] = {'C', 'R', 'F', 'N', 'E', 'T', '1', '\0'};
// Caps for variable-length fields: well above anything legitimate, small
// enough that a corrupted length cannot allocate unreasonably.
constexpr uint64_t kMaxStringBytes = uint64_t{1} << 20;
constexpr uint64_t kMaxMetricsJsonBytes = uint64_t{1} << 26;

// Fixed little-endian frame header. Every field is validated on decode;
// flags/reserved must be zero so there are no "don't care" bits a flip
// could hide in.
struct FrameHeader {
  char magic[8];
  uint32_t version;
  uint8_t op;
  uint8_t flags;
  uint16_t reserved;
  uint64_t payload_bytes;
  uint64_t payload_hash;
};
static_assert(sizeof(FrameHeader) == kFrameHeaderBytes, "wire frame header must be 32 bytes");
static_assert(std::is_trivially_copyable_v<FrameHeader>);

void WriteString(ByteWriter& out, const std::string& s) {
  out.Write<uint64_t>(s.size());
  out.WriteBytes(s.data(), s.size());
}

bool ReadString(ByteReader& in, std::string& out, uint64_t max_bytes = kMaxStringBytes) {
  const uint64_t size = in.Read<uint64_t>();
  if (!in.ok() || size > max_bytes || in.remaining() < size) {
    in.Fail();
    return false;
  }
  out.resize(size);
  return in.ReadBytes(out.data(), size);
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

// One ingest event on the wire: kind u8, task_index i32, tick i32, task_id
// i64, usage f64, limit f64 — packed, little-endian, 33 bytes.
constexpr size_t kEventWireBytes = 1 + 4 + 4 + 8 + 8 + 8;

// Stores `value` at `p` and returns the byte after it.
template <typename T>
uint8_t* Put(uint8_t* p, T value) {
  std::memcpy(p, &value, sizeof(T));
  return p + sizeof(T);
}

}  // namespace

const char* WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kHello:
      return "hello";
    case WireOp::kIngestBatch:
      return "ingest-batch";
    case WireOp::kMachineQuery:
      return "machine-query";
    case WireOp::kCellQuery:
      return "cell-query";
    case WireOp::kAdmissionCheck:
      return "admission-check";
    case WireOp::kMetricsSnapshot:
      return "metrics-snapshot";
    case WireOp::kShutdown:
      return "shutdown";
    case WireOp::kError:
      return "error";
  }
  return "unknown";
}

void SealFrame(WireOp op, size_t frame_start, std::vector<uint8_t>& out) {
  const std::span<const uint8_t> payload(out.data() + frame_start + sizeof(FrameHeader),
                                         out.size() - frame_start - sizeof(FrameHeader));
  FrameHeader header{};
  std::memcpy(header.magic, kNetMagic, sizeof(header.magic));
  header.version = kNetVersion;
  header.op = static_cast<uint8_t>(op);
  header.flags = 0;
  header.reserved = 0;
  header.payload_bytes = payload.size();
  header.payload_hash = Xxh64(payload);
  std::memcpy(out.data() + frame_start, &header, sizeof(header));
}

void AppendFrame(WireOp op, std::span<const uint8_t> payload, std::vector<uint8_t>& out) {
  const size_t frame_start = out.size();
  out.resize(frame_start + sizeof(FrameHeader));
  out.insert(out.end(), payload.begin(), payload.end());
  SealFrame(op, frame_start, out);
}

FrameStatus DecodeFrame(std::span<const uint8_t> buffer, WireOp* op,
                        std::span<const uint8_t>* payload, size_t* frame_bytes,
                        std::string* error) {
  const auto malformed = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return FrameStatus::kMalformed;
  };
  if (buffer.empty()) {
    return FrameStatus::kNeedMore;
  }
  // Reject bad magic as soon as the divergent byte arrives — a peer speaking
  // the wrong protocol is detected from its first bytes, not after 32.
  const size_t magic_prefix = std::min(buffer.size(), sizeof(kNetMagic));
  if (std::memcmp(buffer.data(), kNetMagic, magic_prefix) != 0) {
    return malformed("bad frame magic (expected \"CRFNET1\")");
  }
  if (buffer.size() < sizeof(FrameHeader)) {
    return FrameStatus::kNeedMore;
  }
  FrameHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  if (header.version != kNetVersion) {
    return malformed("unsupported wire version " + std::to_string(header.version) +
                     " (expected " + std::to_string(kNetVersion) + ")");
  }
  if (header.op >= kNumWireOps) {
    return malformed("unknown op " + std::to_string(header.op));
  }
  if (header.flags != 0 || header.reserved != 0) {
    return malformed("nonzero flags/reserved bits in frame header");
  }
  if (header.payload_bytes > kMaxFramePayload) {
    return malformed("frame payload length " + std::to_string(header.payload_bytes) +
                     " exceeds cap " + std::to_string(kMaxFramePayload));
  }
  if (buffer.size() - sizeof(FrameHeader) < header.payload_bytes) {
    return FrameStatus::kNeedMore;
  }
  const std::span<const uint8_t> body =
      buffer.subspan(sizeof(FrameHeader), header.payload_bytes);
  if (Xxh64(body) != header.payload_hash) {
    return malformed("frame payload checksum mismatch");
  }
  *op = static_cast<WireOp>(header.op);
  *payload = body;
  *frame_bytes = sizeof(FrameHeader) + header.payload_bytes;
  return FrameStatus::kFrame;
}

// ---------------------------------------------------------------------------
// Payload encodings.

void HelloRequest::EncodeTo(ByteWriter& out) const { WriteString(out, client_name); }

bool HelloRequest::DecodeFrom(ByteReader& in) { return ReadString(in, client_name); }

void HelloResponse::EncodeTo(ByteWriter& out) const {
  WriteString(out, trace_name);
  WriteString(out, spec_name);
  out.Write<int32_t>(num_machines);
  out.Write<int32_t>(num_intervals);
  out.Write<int32_t>(num_shards);
  out.Write<int32_t>(next_tick);
}

bool HelloResponse::DecodeFrom(ByteReader& in) {
  if (!ReadString(in, trace_name) || !ReadString(in, spec_name)) return false;
  num_machines = in.Read<int32_t>();
  num_intervals = in.Read<int32_t>();
  num_shards = in.Read<int32_t>();
  next_tick = in.Read<int32_t>();
  if (!in.ok() || num_machines < 0 || num_intervals < 0 || num_shards < 0 ||
      next_tick < 0) {
    in.Fail();
    return false;
  }
  return true;
}

void IngestBatchRequest::EncodeTo(ByteWriter& out) const {
  out.Write<int32_t>(machine);
  out.Write<int32_t>(from_tick);
  out.Write<int32_t>(until_tick);
  out.Write<int32_t>(window_until);
  out.Write<uint64_t>(events.size());
  // One pass: size the records once, then write each through one pointer.
  uint8_t* p = out.Extend(events.size() * kEventWireBytes);
  for (const StreamEvent& event : events) {
    p = Put<uint8_t>(p, static_cast<uint8_t>(event.kind));
    p = Put<int32_t>(p, event.task_index);
    p = Put<int32_t>(p, event.tick);
    p = Put<int64_t>(p, event.task_id);
    p = Put<double>(p, event.usage);
    p = Put<double>(p, event.limit);
  }
}

bool IngestBatchRequest::DecodeFrom(ByteReader& in) {
  machine = in.Read<int32_t>();
  from_tick = in.Read<int32_t>();
  until_tick = in.Read<int32_t>();
  window_until = in.Read<int32_t>();
  const uint64_t count = in.Read<uint64_t>();
  // Events are 33 wire bytes each; reject a lying count before resizing.
  if (!in.ok() || machine < 0 || from_tick < 0 || from_tick >= until_tick ||
      until_tick > window_until || count > kMaxBatchEvents ||
      in.remaining() < count * kEventWireBytes) {
    in.Fail();
    return false;
  }
  events.resize(count);
  Interval last_tick = from_tick;
  for (StreamEvent& event : events) {
    const uint8_t kind = in.Read<uint8_t>();
    event.task_index = in.Read<int32_t>();
    event.tick = in.Read<int32_t>();
    event.task_id = in.Read<int64_t>();
    event.usage = in.Read<double>();
    event.limit = in.Read<double>();
    if (!in.ok() || kind > static_cast<uint8_t>(StreamEventKind::kUsageSample) ||
        event.task_index < 0 || event.tick < last_tick || event.tick >= until_tick ||
        !FiniteNonNegative(event.usage) || !FiniteNonNegative(event.limit)) {
      in.Fail();
      return false;
    }
    event.kind = static_cast<StreamEventKind>(kind);
    event.machine = machine;
    last_tick = event.tick;
  }
  return true;
}

void IngestBatchResponse::EncodeTo(ByteWriter& out) const {
  out.Write<double>(prediction);
  out.Write<double>(limit_sum);
  out.Write<int32_t>(last_tick);
}

bool IngestBatchResponse::DecodeFrom(ByteReader& in) {
  prediction = in.Read<double>();
  limit_sum = in.Read<double>();
  last_tick = in.Read<int32_t>();
  return in.ok();
}

void MachineQueryRequest::EncodeTo(ByteWriter& out) const { out.Write<int32_t>(machine); }

bool MachineQueryRequest::DecodeFrom(ByteReader& in) {
  machine = in.Read<int32_t>();
  if (!in.ok() || machine < 0) {
    in.Fail();
    return false;
  }
  return true;
}

void MachineQueryResponse::EncodeTo(ByteWriter& out) const {
  out.Write<int32_t>(last_tick);
  out.Write<double>(prediction);
  out.Write<double>(limit_sum);
  out.Write<int32_t>(roster_size);
  out.Write<uint64_t>(roster_hash);
}

bool MachineQueryResponse::DecodeFrom(ByteReader& in) {
  last_tick = in.Read<int32_t>();
  prediction = in.Read<double>();
  limit_sum = in.Read<double>();
  roster_size = in.Read<int32_t>();
  roster_hash = in.Read<uint64_t>();
  if (!in.ok() || roster_size < 0) {
    in.Fail();
    return false;
  }
  return true;
}

void CellQueryRequest::EncodeTo(ByteWriter&) const {}

bool CellQueryRequest::DecodeFrom(ByteReader& in) { return in.ok(); }

void CellQueryResponse::EncodeTo(ByteWriter& out) const {
  out.Write<int32_t>(num_machines);
  out.Write<int32_t>(min_last_tick);
  out.Write<int32_t>(max_last_tick);
  out.Write<double>(prediction_sum);
  out.Write<double>(limit_sum);
  out.Write<uint64_t>(events_ingested);
}

bool CellQueryResponse::DecodeFrom(ByteReader& in) {
  num_machines = in.Read<int32_t>();
  min_last_tick = in.Read<int32_t>();
  max_last_tick = in.Read<int32_t>();
  prediction_sum = in.Read<double>();
  limit_sum = in.Read<double>();
  events_ingested = in.Read<uint64_t>();
  if (!in.ok() || num_machines < 0) {
    in.Fail();
    return false;
  }
  return true;
}

void AdmissionCheckRequest::EncodeTo(ByteWriter& out) const {
  out.Write<int32_t>(machine);
  out.Write<double>(task_limit);
}

bool AdmissionCheckRequest::DecodeFrom(ByteReader& in) {
  machine = in.Read<int32_t>();
  task_limit = in.Read<double>();
  if (!in.ok() || machine < 0 || !FiniteNonNegative(task_limit)) {
    in.Fail();
    return false;
  }
  return true;
}

void AdmissionCheckResponse::EncodeTo(ByteWriter& out) const {
  out.Write<uint8_t>(admitted ? 1 : 0);
  out.Write<double>(predicted_peak);
  out.Write<double>(capacity);
  out.Write<double>(headroom);
}

bool AdmissionCheckResponse::DecodeFrom(ByteReader& in) {
  const uint8_t admitted_byte = in.Read<uint8_t>();
  predicted_peak = in.Read<double>();
  capacity = in.Read<double>();
  headroom = in.Read<double>();
  if (!in.ok() || admitted_byte > 1) {
    in.Fail();
    return false;
  }
  admitted = admitted_byte != 0;
  return true;
}

void MetricsSnapshotRequest::EncodeTo(ByteWriter&) const {}

bool MetricsSnapshotRequest::DecodeFrom(ByteReader& in) { return in.ok(); }

void MetricsSnapshotResponse::EncodeTo(ByteWriter& out) const { WriteString(out, json); }

bool MetricsSnapshotResponse::DecodeFrom(ByteReader& in) {
  return ReadString(in, json, kMaxMetricsJsonBytes);
}

void ShutdownRequest::EncodeTo(ByteWriter& out) const {
  out.Write<uint8_t>(seal_checkpoint ? 1 : 0);
}

bool ShutdownRequest::DecodeFrom(ByteReader& in) {
  const uint8_t seal = in.Read<uint8_t>();
  if (!in.ok() || seal > 1) {
    in.Fail();
    return false;
  }
  seal_checkpoint = seal != 0;
  return true;
}

void ShutdownResponse::EncodeTo(ByteWriter& out) const {
  out.Write<uint8_t>(sealed ? 1 : 0);
  out.Write<int32_t>(next_tick);
  WriteString(out, checkpoint_path);
}

bool ShutdownResponse::DecodeFrom(ByteReader& in) {
  const uint8_t sealed_byte = in.Read<uint8_t>();
  next_tick = in.Read<int32_t>();
  if (!in.ok() || sealed_byte > 1 || next_tick < 0) {
    in.Fail();
    return false;
  }
  sealed = sealed_byte != 0;
  return ReadString(in, checkpoint_path);
}

void ErrorResponse::EncodeTo(ByteWriter& out) const { WriteString(out, message); }

bool ErrorResponse::DecodeFrom(ByteReader& in) { return ReadString(in, message); }

}  // namespace crf
