// NetClient: a blocking CRFNET1 (wire version 2) client connection.
//
// One TCP connection speaking the wire format of wire.h: Call() frames a
// request, sends it, and blocks until the matching response frame arrives
// (the protocol is strictly request/response per connection). Typed
// wrappers decode the expected payload; a kError response or any framing /
// decode failure surfaces as std::nullopt with the diagnostic in *error.
// Used by the load generator, the CLI, and the loopback tests.

#ifndef CRF_NET_CLIENT_H_
#define CRF_NET_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crf/net/wire.h"

namespace crf {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // Connects to a numeric IPv4 host:port. Returns false with a diagnostic.
  bool Connect(const std::string& host, int port, std::string* error);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // One framed round trip: sends `op` with `payload`, receives one frame.
  // Returns false on transport or framing failure. On success `*response_op`
  // is the server's op (kError for server-side failures) and
  // `*response_payload` points into the client's receive buffer (valid until
  // the next Call).
  bool Call(WireOp op, const ByteWriter& payload, WireOp* response_op,
            std::span<const uint8_t>* response_payload, std::string* error);

  // Typed round trips. std::nullopt on any failure, with *error set (a
  // server kError response decodes its message into *error).
  std::optional<HelloResponse> Hello(const HelloRequest& request, std::string* error);
  std::optional<IngestBatchResponse> IngestBatch(const IngestBatchRequest& request,
                                                 std::string* error);
  std::optional<MachineQueryResponse> MachineQuery(const MachineQueryRequest& request,
                                                   std::string* error);
  std::optional<CellQueryResponse> CellQuery(std::string* error);
  std::optional<AdmissionCheckResponse> AdmissionCheck(const AdmissionCheckRequest& request,
                                                       std::string* error);
  std::optional<MetricsSnapshotResponse> MetricsSnapshot(std::string* error);
  std::optional<ShutdownResponse> Shutdown(const ShutdownRequest& request, std::string* error);

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  template <typename Request, typename Response>
  std::optional<Response> TypedCall(WireOp op, const Request& request, std::string* error);
  // Sends the frame in send_buffer_ and receives one response frame.
  bool RoundTrip(WireOp* response_op, std::span<const uint8_t>* response_payload,
                 std::string* error);

  int fd_ = -1;
  std::vector<uint8_t> receive_buffer_;
  std::vector<uint8_t> send_buffer_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace crf

#endif  // CRF_NET_CLIENT_H_
