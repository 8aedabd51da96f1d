// CRFNET1 wire format, version 2: the binary protocol of the network serve
// tier (DESIGN.md §10).
//
// Follows the CRFCKPT1 / .crftrace framing idiom: every message on a
// connection is one frame — a fixed 32-byte little-endian header (magic,
// version, op) followed by an XXH64-checksummed, length-prefixed payload
// encoded with byte_io. Requests and responses share the framing; a response
// carries the request's op on success or kError with a diagnostic string.
//
//   bytes [0,32)   header: magic "CRFNET1", version, op, flags/reserved
//                  (must be zero — every header bit is load-bearing so a
//                  bit flip anywhere is rejected), payload size + XXH64
//   then           the payload (ByteWriter encoding of one of the
//                  *Request / *Response structs below)
//
// Version 2 changed only the payload checksum (FNV-1a 64 → XXH64, which
// hashes 32 bytes per step); a version-1 peer is rejected by its version
// field. Senders build a frame in place (AppendMessageFrame): the header is
// reserved, the payload encoded after it, and the header sealed last.
//
// Decoding is incremental and never trusts the peer: DecodeFrame returns
// kNeedMore on a partial frame, and any malformed byte — bad magic, unknown
// version or op, oversized length, checksum mismatch — yields kMalformed
// with a diagnostic. Each payload struct lists its layout once, in its
// Transfer (crf/util/byte_io.h); the read bounds-checks every field and
// validates after it (byte_io latches failure instead of aborting), so a
// truncated or bit-flipped frame is an error on the connection, never a
// crash in the server.

#ifndef CRF_NET_WIRE_H_
#define CRF_NET_WIRE_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crf/trace/stream_event.h"
#include "crf/util/byte_io.h"
#include "crf/util/time_grid.h"

namespace crf {

inline constexpr uint32_t kNetVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 32;
// Hard cap on a single frame's payload; a corrupted length field cannot make
// the receiver buffer gigabytes.
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 28;
// Hard cap on the events in one ingest batch (well above any real frame:
// the load generator bounds frames by ticks, not this).
inline constexpr uint64_t kMaxBatchEvents = uint64_t{1} << 24;
// Caps for variable-length fields: well above anything legitimate, small
// enough that a corrupted length cannot allocate unreasonably.
inline constexpr uint64_t kMaxWireStringBytes = uint64_t{1} << 20;
inline constexpr uint64_t kMaxMetricsJsonBytes = uint64_t{1} << 26;

// Operation codes. A response frame echoes the request's op, or carries
// kError with an ErrorResponse payload.
enum class WireOp : uint8_t {
  kHello = 0,            // identity handshake
  kIngestBatch = 1,      // one machine's event stream for a tick range
  kMachineQuery = 2,     // per-machine prediction / limit-sum / roster state
  kCellQuery = 3,        // cell-level aggregate over all machines
  kAdmissionCheck = 4,   // would limit L on machine m violate the peak?
  kMetricsSnapshot = 5,  // ServeMetrics JSON (with the "net" section)
  kShutdown = 6,         // graceful stop: seal a CRFCKPT1, then close
  kError = 7,            // response only: diagnostic string
};
inline constexpr int kNumWireOps = 8;

// Stable op name for metrics keys and diagnostics ("ingest-batch", ...).
const char* WireOpName(WireOp op);

// ---------------------------------------------------------------------------
// Framing.

enum class FrameStatus : uint8_t {
  kNeedMore = 0,   // buffer holds a prefix of a valid frame; read more bytes
  kFrame = 1,      // one complete, checksum-verified frame decoded
  kMalformed = 2,  // the buffer cannot begin a valid frame; drop the peer
};

// Writes the header of the frame that starts at `frame_start` in `out`; its
// payload is every byte after the header's 32 (already reserved) bytes.
void SealFrame(WireOp op, size_t frame_start, std::vector<uint8_t>& out);

// Appends one complete frame (header + a copy of `payload`) to `out`.
void AppendFrame(WireOp op, std::span<const uint8_t> payload, std::vector<uint8_t>& out);
inline void AppendFrame(WireOp op, const ByteWriter& payload, std::vector<uint8_t>& out) {
  AppendFrame(op, std::span<const uint8_t>(payload.bytes()), out);
}

// Appends one frame carrying `message`, encoded straight into `out` after
// the reserved header — no intermediate payload buffer, no copy. The bytes
// equal AppendFrame of the message's standalone encoding.
template <typename Message>
void AppendMessageFrame(WireOp op, const Message& message, std::vector<uint8_t>& out) {
  const size_t frame_start = out.size();
  ByteWriter writer(std::move(out));
  writer.Extend(kFrameHeaderBytes);
  writer.Field(message);
  out = writer.Release();
  SealFrame(op, frame_start, out);
}

// Attempts to decode one frame from the front of `buffer`. On kFrame, sets
// `op`, points `payload` into `buffer`, and sets `frame_bytes` to the bytes
// consumed. On kMalformed, `error` (if non-null) describes the first bad
// field. kNeedMore means the buffer is a (possibly empty) prefix of a frame.
FrameStatus DecodeFrame(std::span<const uint8_t> buffer, WireOp* op,
                        std::span<const uint8_t>* payload, size_t* frame_bytes,
                        std::string* error);

// ---------------------------------------------------------------------------
// Payloads. Each struct's Transfer is its one layout, for the encoder and
// the decoder alike; a decode validates every field after reading it.
// DecodePayload additionally requires the payload to be fully consumed —
// trailing bytes are an error.

template <typename T>
bool DecodePayload(std::span<const uint8_t> payload, T& out) {
  ByteReader reader(payload);
  reader.Field(out);
  return reader.ok() && reader.AtEnd();
}

inline bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

struct HelloRequest {
  std::string client_name;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Field(self.client_name, kMaxWireStringBytes);
  }
};

// The server's identity: the trace it scores against, the predictor it
// runs, the shard geometry, and the next tick it expects (> 0 when the
// server was resumed from a checkpoint).
struct HelloResponse {
  std::string trace_name;
  std::string spec_name;
  int32_t num_machines = 0;
  Interval num_intervals = 0;
  int32_t num_shards = 0;
  Interval next_tick = 0;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Field(self.trace_name, kMaxWireStringBytes);
    io.Field(self.spec_name, kMaxWireStringBytes);
    io.Fields(self.num_machines, self.num_intervals, self.num_shards, self.next_tick);
    io.Check([&] {
      return self.num_machines >= 0 && self.num_intervals >= 0 && self.num_shards >= 0 &&
             self.next_tick >= 0;
    });
  }
};

// One machine's canonical event stream for ticks [from_tick, until_tick),
// streamed toward the common window boundary `window_until` (see
// server.h for the shard ordering protocol). Events carry their tick and
// must be non-decreasing within the range; per tick the canonical order of
// stream_event.h applies (departures, arrivals, usage samples). The events' machine
// field is implied by `machine` and not sent.
struct IngestBatchRequest {
  int32_t machine = -1;
  Interval from_tick = 0;
  Interval until_tick = 0;
  Interval window_until = 0;
  std::vector<StreamEvent> events;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Fields(self.machine, self.from_tick, self.until_tick, self.window_until);
    io.Check([&] {
      return self.machine >= 0 && self.from_tick >= 0 && self.from_tick < self.until_tick &&
             self.until_tick <= self.window_until;
    });
    TransferEvents(io, self);
  }
  // The events: a u64 count, then 33 packed bytes each (kind u8,
  // task_index i32, tick i32, task_id i64, usage f64, limit f64). The
  // ingest hot path: written in one pass, read by one bounds-checked loop
  // that validates each event against the batch's tick range.
  static void TransferEvents(ByteWriter& out, const IngestBatchRequest& self);
  static void TransferEvents(ByteReader& in, IngestBatchRequest& self);
};

struct IngestBatchResponse {
  double prediction = 0.0;  // published prediction after the batch's last tick
  double limit_sum = 0.0;
  Interval last_tick = -1;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Fields(self.prediction, self.limit_sum, self.last_tick);
  }
};

struct MachineQueryRequest {
  int32_t machine = -1;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Field(self.machine);
    io.Check([&] { return self.machine >= 0; });
  }
};

struct MachineQueryResponse {
  Interval last_tick = -1;
  double prediction = 0.0;
  double limit_sum = 0.0;
  int32_t roster_size = 0;
  // FNV-1a over the roster's task indices (little-endian) — lets a client
  // compare full roster identity without shipping the roster. (A roster
  // hash, not a frame check: it stays FNV-1a across wire versions.)
  uint64_t roster_hash = 0;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Fields(self.last_tick, self.prediction, self.limit_sum, self.roster_size,
              self.roster_hash);
    io.Check([&] { return self.roster_size >= 0; });
  }
};

struct CellQueryRequest {
  template <typename Io, typename Self>
  static void Transfer(Io&, Self&) {}
};

struct CellQueryResponse {
  int32_t num_machines = 0;
  Interval min_last_tick = -1;
  Interval max_last_tick = -1;
  // Summed over machines in ascending machine order (deterministic).
  double prediction_sum = 0.0;
  double limit_sum = 0.0;
  uint64_t events_ingested = 0;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Fields(self.num_machines, self.min_last_tick, self.max_last_tick, self.prediction_sum,
              self.limit_sum, self.events_ingested);
    io.Check([&] { return self.num_machines >= 0; });
  }
};

struct AdmissionCheckRequest {
  int32_t machine = -1;
  double task_limit = 0.0;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Fields(self.machine, self.task_limit);
    io.Check([&] { return self.machine >= 0 && FiniteNonNegative(self.task_limit); });
  }
};

struct AdmissionCheckResponse {
  // True iff predicted_peak + task_limit <= capacity (paper Section 3.3:
  // the scheduler packs against predicted peak, not the limit sum).
  bool admitted = false;
  double predicted_peak = 0.0;
  double capacity = 0.0;
  double headroom = 0.0;  // capacity - predicted_peak

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Fields(self.admitted, self.predicted_peak, self.capacity, self.headroom);
  }
};

struct MetricsSnapshotRequest {
  template <typename Io, typename Self>
  static void Transfer(Io&, Self&) {}
};

struct MetricsSnapshotResponse {
  std::string json;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Field(self.json, kMaxMetricsJsonBytes);
  }
};

struct ShutdownRequest {
  // When true and the server was configured with a checkpoint path, the
  // server seals a CRFCKPT1 at the committed boundary before closing.
  bool seal_checkpoint = true;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Field(self.seal_checkpoint);
  }
};

struct ShutdownResponse {
  bool sealed = false;
  Interval next_tick = 0;
  std::string checkpoint_path;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Fields(self.sealed, self.next_tick);
    io.Check([&] { return self.next_tick >= 0; });
    io.Field(self.checkpoint_path, kMaxWireStringBytes);
  }
};

struct ErrorResponse {
  std::string message;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Field(self.message, kMaxWireStringBytes);
  }
};

}  // namespace crf

#endif  // CRF_NET_WIRE_H_
