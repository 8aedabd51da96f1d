#include "crf/net/wire.h"

#include <cstring>

namespace crf {
namespace {

constexpr char kNetMagic[8] = {'C', 'R', 'F', 'N', 'E', 'T', '1', '\0'};

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
// The ingest events (see IngestBatchRequest::TransferEvents).

void IngestBatchRequest::TransferEvents(ByteWriter& out, const IngestBatchRequest& self) {
  out.Write<uint64_t>(self.events.size());
  // One pass: size the records once, then write each through one pointer.
  uint8_t* p = out.Extend(self.events.size() * kEventWireBytes);
  for (const StreamEvent& event : self.events) {
    p = Put<uint8_t>(p, static_cast<uint8_t>(event.kind));
    p = Put<int32_t>(p, event.task_index);
    p = Put<int32_t>(p, event.tick);
    p = Put<int64_t>(p, event.task_id);
    p = Put<double>(p, event.usage);
    p = Put<double>(p, event.limit);
  }
}

void IngestBatchRequest::TransferEvents(ByteReader& in, IngestBatchRequest& self) {
  const uint64_t count = in.Read<uint64_t>();
  // Events are 33 wire bytes each; reject a lying count before resizing.
  if (!in.ok() || count > kMaxBatchEvents || in.remaining() < count * kEventWireBytes) {
    in.Fail();
    return;
  }
  self.events.resize(count);
  Interval last_tick = self.from_tick;
  for (StreamEvent& event : self.events) {
    const uint8_t kind = in.Read<uint8_t>();
    event.task_index = in.Read<int32_t>();
    event.tick = in.Read<int32_t>();
    event.task_id = in.Read<int64_t>();
    event.usage = in.Read<double>();
    event.limit = in.Read<double>();
    if (!in.ok() || kind > static_cast<uint8_t>(StreamEventKind::kUsageSample) ||
        event.task_index < 0 || event.tick < last_tick || event.tick >= self.until_tick ||
        !FiniteNonNegative(event.usage) || !FiniteNonNegative(event.limit)) {
      in.Fail();
      return;
    }
    event.kind = static_cast<StreamEventKind>(kind);
    event.machine = self.machine;
    last_tick = event.tick;
  }
}

}  // namespace crf
