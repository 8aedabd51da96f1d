#include "crf/net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace crf {
namespace {

constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool NetClient::Connect(const std::string& host, int port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "host \"" + host + "\" is not a numeric IPv4 address";
    Close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect " + host + ":" + std::to_string(port) + ": " + std::strerror(errno);
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  receive_buffer_.clear();
  return true;
}

bool NetClient::Call(WireOp op, const ByteWriter& payload, WireOp* response_op,
                     std::span<const uint8_t>* response_payload, std::string* error) {
  send_buffer_.clear();
  AppendFrame(op, payload, send_buffer_);
  return RoundTrip(response_op, response_payload, error);
}

bool NetClient::RoundTrip(WireOp* response_op, std::span<const uint8_t>* response_payload,
                          std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  size_t sent = 0;
  while (sent < send_buffer_.size()) {
    const ssize_t n =
        ::send(fd_, send_buffer_.data() + sent, send_buffer_.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  bytes_sent_ += send_buffer_.size();

  // The protocol is one response frame per request; any leftover bytes from
  // a previous round would be a framing bug, so start clean. The buffer
  // keeps its size across calls (bytes [0, received) are this response), so
  // a recv never re-zeroes space that is already there.
  size_t received = 0;
  while (true) {
    size_t frame_bytes = 0;
    const FrameStatus status =
        DecodeFrame(std::span<const uint8_t>(receive_buffer_.data(), received), response_op,
                    response_payload, &frame_bytes, error);
    if (status == FrameStatus::kFrame) {
      bytes_received_ += frame_bytes;
      return true;
    }
    if (status == FrameStatus::kMalformed) {
      *error = "malformed response frame: " + *error;
      return false;
    }
    if (receive_buffer_.size() - received < kReadChunk) {
      receive_buffer_.resize(received + kReadChunk);
    }
    const ssize_t n = ::recv(fd_, receive_buffer_.data() + received,
                             receive_buffer_.size() - received, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      *error = n == 0 ? "connection closed by server"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    received += static_cast<size_t>(n);
  }
}

template <typename Request, typename Response>
std::optional<Response> NetClient::TypedCall(WireOp op, const Request& request,
                                             std::string* error) {
  send_buffer_.clear();
  AppendMessageFrame(op, request, send_buffer_);
  WireOp response_op;
  std::span<const uint8_t> response_payload;
  if (!RoundTrip(&response_op, &response_payload, error)) {
    return std::nullopt;
  }
  if (response_op == WireOp::kError) {
    ErrorResponse failure;
    *error = DecodePayload(response_payload, failure) ? failure.message
                                                      : "undecodable error response";
    return std::nullopt;
  }
  if (response_op != op) {
    *error = std::string("response op ") + WireOpName(response_op) +
             " does not match request op " + WireOpName(op);
    return std::nullopt;
  }
  Response response;
  if (!DecodePayload(response_payload, response)) {
    *error = std::string("malformed ") + WireOpName(op) + " response payload";
    return std::nullopt;
  }
  return response;
}

std::optional<HelloResponse> NetClient::Hello(const HelloRequest& request, std::string* error) {
  return TypedCall<HelloRequest, HelloResponse>(WireOp::kHello, request, error);
}

std::optional<IngestBatchResponse> NetClient::IngestBatch(const IngestBatchRequest& request,
                                                          std::string* error) {
  return TypedCall<IngestBatchRequest, IngestBatchResponse>(WireOp::kIngestBatch, request,
                                                            error);
}

std::optional<MachineQueryResponse> NetClient::MachineQuery(const MachineQueryRequest& request,
                                                            std::string* error) {
  return TypedCall<MachineQueryRequest, MachineQueryResponse>(WireOp::kMachineQuery, request,
                                                              error);
}

std::optional<CellQueryResponse> NetClient::CellQuery(std::string* error) {
  return TypedCall<CellQueryRequest, CellQueryResponse>(WireOp::kCellQuery, CellQueryRequest{},
                                                        error);
}

std::optional<AdmissionCheckResponse> NetClient::AdmissionCheck(
    const AdmissionCheckRequest& request, std::string* error) {
  return TypedCall<AdmissionCheckRequest, AdmissionCheckResponse>(WireOp::kAdmissionCheck,
                                                                  request, error);
}

std::optional<MetricsSnapshotResponse> NetClient::MetricsSnapshot(std::string* error) {
  return TypedCall<MetricsSnapshotRequest, MetricsSnapshotResponse>(
      WireOp::kMetricsSnapshot, MetricsSnapshotRequest{}, error);
}

std::optional<ShutdownResponse> NetClient::Shutdown(const ShutdownRequest& request,
                                                    std::string* error) {
  return TypedCall<ShutdownRequest, ShutdownResponse>(WireOp::kShutdown, request, error);
}

}  // namespace crf
