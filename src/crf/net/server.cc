#include "crf/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "crf/serve/checkpoint.h"

namespace crf {
namespace {

constexpr int kPollMillis = 200;
constexpr size_t kReadChunk = 64 * 1024;

double ElapsedNs(std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// Sends the whole buffer; returns false on any socket error.
bool SendAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

OvercommitServer::OvercommitServer(StreamReplayer& replayer, const NetServerOptions& options)
    : replayer_(replayer), options_(options), shards_(replayer.num_shards()) {
  // Derive each shard's machine range from the replayer's own map, so the
  // wire protocol and AdvanceShard can never disagree about ownership.
  const int num_machines = replayer_.cell().num_machines();
  for (auto& shard : shards_) {
    shard.begin_machine = num_machines;  // empty until a machine lands in it
    shard.end_machine = num_machines;
  }
  for (int m = 0; m < num_machines; ++m) {
    NetShard& shard = shards_[replayer_.shard_of(m)];
    shard.begin_machine = std::min(shard.begin_machine, m);
    shard.end_machine = m + 1;
  }
  for (auto& shard : shards_) {
    if (shard.begin_machine >= shard.end_machine) {
      shard.begin_machine = shard.end_machine = 0;  // empty shard
    }
    shard.next_machine = shard.begin_machine;
  }
}

OvercommitServer::~OvercommitServer() {
  RequestStop();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  std::vector<std::unique_ptr<ConnectionThread>> connections;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connections.swap(connection_threads_);
  }
  for (auto& connection : connections) {
    connection->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
}

bool OvercommitServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "listen address \"" + options_.host + "\" is not a numeric IPv4 address";
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind " + options_.host + ":" + std::to_string(options_.port) + ": " +
             std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  port_ = ntohs(bound.sin_port);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void OvercommitServer::Wait(const std::atomic<bool>* external_stop) {
  while (!stop_.load(std::memory_order_acquire)) {
    if (external_stop != nullptr && external_stop->load(std::memory_order_acquire)) {
      // External (signal-driven) stop: seal exactly like the shutdown op.
      // There is no client connection to carry a failure, so report it to
      // the operator — otherwise a SIGINT mid-window silently exits with no
      // checkpoint on disk.
      ShutdownResponse response;
      std::string error;
      bool ok;
      {
        std::lock_guard<std::mutex> lock(window_mutex_);
        ok = SealLocked(/*seal=*/true, &response, &error);
      }
      if (!ok) {
        std::fprintf(stderr, "crf serve: stop requested but no checkpoint was sealed: %s\n",
                     error.c_str());
      }
      stop_.store(true, std::memory_order_release);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void OvercommitServer::RequestStop() { stop_.store(true, std::memory_order_release); }

void OvercommitServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    ReapConnectionThreads();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    net_metrics_.OnAccept();
    if (net_metrics_.connections_active() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    net_metrics_.OnOpen();
    ConnectionStats* stats = net_metrics_.AddConnection();
    auto connection = std::make_unique<ConnectionThread>();
    ConnectionThread* raw = connection.get();
    raw->thread = std::thread([this, fd, stats, raw] {
      ConnectionLoop(fd, stats);
      raw->done.store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connection_threads_.push_back(std::move(connection));
  }
}

void OvercommitServer::ReapConnectionThreads() {
  std::vector<std::unique_ptr<ConnectionThread>> finished;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    const auto split = std::stable_partition(
        connection_threads_.begin(), connection_threads_.end(),
        [](const std::unique_ptr<ConnectionThread>& connection) {
          return !connection->done.load(std::memory_order_acquire);
        });
    std::move(split, connection_threads_.end(), std::back_inserter(finished));
    connection_threads_.erase(split, connection_threads_.end());
  }
  for (auto& connection : finished) {
    connection->thread.join();
  }
}

void OvercommitServer::ConnectionLoop(int fd, ConnectionStats* stats) {
  // Bytes [consumed, filled) of `buffer` are received but not yet decoded.
  // The buffer only grows (to the largest frame plus one read chunk), so a
  // recv never re-zeroes space that is already there.
  std::vector<uint8_t> buffer;
  std::vector<uint8_t> response;
  size_t consumed = 0;
  size_t filled = 0;
  bool open = true;
  while (open && !stop_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) {
      continue;
    }
    if (buffer.size() - filled < kReadChunk) {
      buffer.resize(filled + kReadChunk);
    }
    const ssize_t n = ::recv(fd, buffer.data() + filled, kReadChunk, 0);
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
      break;  // peer closed or hard error
    }
    filled += static_cast<size_t>(std::max<ssize_t>(n, 0));

    // Drain every complete frame in the buffer before reading again.
    while (open) {
      WireOp op;
      std::span<const uint8_t> payload;
      size_t frame_bytes = 0;
      std::string error;
      const std::span<const uint8_t> pending(buffer.data() + consumed, filled - consumed);
      const FrameStatus status = DecodeFrame(pending, &op, &payload, &frame_bytes, &error);
      if (status == FrameStatus::kNeedMore) {
        break;
      }
      response.clear();
      if (status == FrameStatus::kMalformed) {
        Reject(error, response);
        SendAll(fd, response.data(), response.size());
        stats->RecordBytesOut(response.size());
        open = false;
        break;
      }
      stats->RecordBytesIn(frame_bytes);
      const auto t0 = std::chrono::steady_clock::now();
      open = HandleFrame(op, payload, stats, response);
      const auto t1 = std::chrono::steady_clock::now();
      stats->RecordOp(op, ElapsedNs(t0, t1));
      consumed += frame_bytes;
      if (!SendAll(fd, response.data(), response.size())) {
        open = false;
      }
      stats->RecordBytesOut(response.size());
    }
    // Compact once the consumed prefix dominates the buffer.
    if (consumed == filled) {
      consumed = filled = 0;
    } else if (consumed > (1u << 20)) {
      std::memmove(buffer.data(), buffer.data() + consumed, filled - consumed);
      filled -= consumed;
      consumed = 0;
    }
  }
  ::close(fd);
  net_metrics_.OnClose();
  net_metrics_.RetireConnection(stats);
}

bool OvercommitServer::HandleFrame(WireOp op, std::span<const uint8_t> payload,
                                   ConnectionStats* stats, std::vector<uint8_t>& out) {
  switch (op) {
    case WireOp::kHello:
      HandleHello(payload, out);
      return true;
    case WireOp::kIngestBatch:
      return HandleIngest(payload, stats, out);
    case WireOp::kMachineQuery:
      return HandleMachineQuery(payload, out);
    case WireOp::kCellQuery:
      HandleCellQuery(out);
      return true;
    case WireOp::kAdmissionCheck:
      return HandleAdmission(payload, out);
    case WireOp::kMetricsSnapshot:
      HandleMetrics(out);
      return true;
    case WireOp::kShutdown:
      HandleShutdown(payload, out);
      return false;  // connection (and server) close after the response
    case WireOp::kError:
      break;
  }
  return Reject("op not valid as a request", out);
}

bool OvercommitServer::Reject(const std::string& message, std::vector<uint8_t>& out) {
  net_metrics_.OnRejectedFrame();
  AppendError(message, out);
  return false;
}

void OvercommitServer::AppendError(const std::string& message, std::vector<uint8_t>& out) {
  ErrorResponse response;
  response.message = message;
  AppendMessageFrame(WireOp::kError, response, out);
}

void OvercommitServer::HandleHello(std::span<const uint8_t> payload,
                                   std::vector<uint8_t>& out) {
  HelloRequest request;
  if (!DecodePayload(payload, request)) {
    Reject("malformed hello payload", out);
    return;
  }
  HelloResponse response;
  response.trace_name = replayer_.cell().name;
  response.spec_name = replayer_.spec().Name();
  response.num_machines = replayer_.cell().num_machines();
  response.num_intervals = replayer_.cell().num_intervals;
  response.num_shards = replayer_.num_shards();
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    response.next_tick = replayer_.next_tick();
  }
  AppendMessageFrame(WireOp::kHello, response, out);
}

bool OvercommitServer::HandleIngest(std::span<const uint8_t> payload, ConnectionStats* stats,
                                    std::vector<uint8_t>& out) {
  IngestBatchRequest request;
  if (!DecodePayload(payload, request)) {
    return Reject("malformed ingest-batch payload", out);
  }
  if (request.machine >= replayer_.cell().num_machines()) {
    return Reject("ingest-batch machine " + std::to_string(request.machine) +
                      " out of range (cell has " +
                      std::to_string(replayer_.cell().num_machines()) + " machines)",
                  out);
  }
  const int shard_index = replayer_.shard_of(request.machine);
  NetShard& shard = shards_[shard_index];

  IngestBatchResponse response;
  bool shard_completed_window = false;
  Interval completed_window_until = -1;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Window bookkeeping: open on first use, then enforce the shared
    // boundary and the machine-outer, machine-ascending streaming order
    // that keeps push-mode arithmetic identical to AdvanceShard.
    if (shard.window_until < 0) {
      if (shard.completed_until >= 0) {
        return Reject("ingest window through tick " + std::to_string(shard.completed_until) +
                          " is complete on this shard but not yet committed cell-wide",
                      out);
      }
      // next_tick only moves under all shard locks (TryCommitWindow), and we
      // hold one, so this read is stable.
      const Interval from = replayer_.next_tick();
      if (request.window_until <= from ||
          request.window_until > replayer_.cell().num_intervals) {
        return Reject("ingest window_until " + std::to_string(request.window_until) +
                          " outside (" + std::to_string(from) + ", " +
                          std::to_string(replayer_.cell().num_intervals) + "]",
                      out);
      }
      shard.window_from = from;
      shard.window_until = request.window_until;
      shard.next_machine = shard.begin_machine;
      shard.machine_tick = from;
    }
    if (request.window_until != shard.window_until) {
      return Reject("ingest window_until " + std::to_string(request.window_until) +
                        " does not match the shard's open window (" +
                        std::to_string(shard.window_until) + ")",
                    out);
    }
    if (shard.next_machine >= shard.end_machine) {
      return Reject("shard has no machine left to stream in this window", out);
    }
    if (request.machine != shard.next_machine) {
      return Reject("ingest-batch machine " + std::to_string(request.machine) +
                        " out of order (shard expects machine " +
                        std::to_string(shard.next_machine) + ")",
                    out);
    }
    if (request.from_tick != shard.machine_tick || request.until_tick > shard.window_until) {
      return Reject("ingest-batch ticks [" + std::to_string(request.from_tick) + ", " +
                        std::to_string(request.until_tick) + ") do not continue machine " +
                        std::to_string(request.machine) + " (expected from tick " +
                        std::to_string(shard.machine_tick) + ", window ends at " +
                        std::to_string(shard.window_until) + ")",
                    out);
    }

    // Apply tick by tick. The replayer validates each tick's batch against
    // the machine's roster as it applies it (MachineRoster::Apply), so a
    // malformed tick is rejected whole, leaving every earlier tick applied.
    const OvercommitService& service = replayer_.service();
    const auto t0 = std::chrono::steady_clock::now();
    size_t i = 0;
    for (Interval tau = request.from_tick; tau < request.until_tick; ++tau) {
      size_t end = i;
      while (end < request.events.size() && request.events[end].tick == tau) {
        ++end;
      }
      const std::span<const StreamEvent> tick_events(request.events.data() + i, end - i);
      std::string error;
      if (!replayer_.PushMachineTick(request.machine, tau, tick_events, &error)) {
        return Reject("ingest-batch machine " + std::to_string(request.machine) + ": " + error,
                      out);
      }
      // Advance the streaming cursor with every applied tick, not once per
      // batch: an error on a later tick must leave the cursor on the applied
      // prefix, so a resumed stream continues at the first unapplied tick.
      shard.machine_tick = tau + 1;
      i = end;
    }
    const auto t1 = std::chrono::steady_clock::now();
    shard.elapsed_seconds += std::chrono::duration<double>(t1 - t0).count();

    response.prediction = service.Predict(request.machine);
    response.limit_sum = service.LimitSum(request.machine);
    response.last_tick = service.LastTick(request.machine);
    stats->RecordBatch(static_cast<int64_t>(request.events.size()));

    // On the machine's final tick move to the next machine, and on the
    // shard's last machine mark the window complete.
    if (request.until_tick == shard.window_until) {
      ++shard.next_machine;
      shard.machine_tick = shard.window_from;
      if (shard.next_machine >= shard.end_machine) {
        shard.completed_until = shard.window_until;
        shard.window_until = -1;
        shard_completed_window = true;
        completed_window_until = shard.completed_until;
      }
    }
  }

  // Last shard to finish commits the window for the whole cell (outside the
  // shard lock: the commit path takes window_mutex_ then every shard lock).
  if (shard_completed_window) {
    std::lock_guard<std::mutex> lock(window_mutex_);
    std::string error;
    if (!TryCommitWindow(&error) && !error.empty()) {
      return Reject("window commit at tick " + std::to_string(completed_window_until) +
                        " failed: " + error,
                    out);
    }
  }

  AppendMessageFrame(WireOp::kIngestBatch, response, out);
  return true;
}

std::vector<std::unique_lock<std::mutex>> OvercommitServer::LockAllShards() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) {
    locks.emplace_back(shard.mutex);
  }
  return locks;
}

bool OvercommitServer::TryCommitWindow(std::string* error) {
  // Take every shard lock (in order) so pushes cannot race the commit and
  // their writes are visible here.
  const auto locks = LockAllShards();
  return TryCommitWindowShardsLocked(error);
}

bool OvercommitServer::TryCommitWindowShardsLocked(std::string* error) {
  Interval window = -1;
  for (const auto& shard : shards_) {
    if (shard.begin_machine == shard.end_machine) {
      continue;  // empty shard, nothing to stream
    }
    if (shard.window_until >= 0 || shard.completed_until < 0) {
      return false;  // some shard still streaming; not an error
    }
    if (window < 0) {
      window = shard.completed_until;
    } else if (shard.completed_until != window) {
      *error = "shards completed mismatched windows (" + std::to_string(window) + " vs " +
               std::to_string(shard.completed_until) + ")";
      return false;
    }
  }
  if (window < 0) {
    return false;  // no machines anywhere
  }
  if (!replayer_.CommitPushedWindow(window)) {
    *error = "replayer rejected the window commit (a machine lags tick " +
             std::to_string(window - 1) + ")";
    return false;
  }
  for (auto& shard : shards_) {
    shard.completed_until = -1;
  }
  return true;
}

bool OvercommitServer::HandleMachineQuery(std::span<const uint8_t> payload,
                                          std::vector<uint8_t>& out) {
  MachineQueryRequest request;
  if (!DecodePayload(payload, request) ||
      request.machine >= replayer_.cell().num_machines()) {
    return Reject("malformed machine-query payload", out);
  }
  MachineQueryResponse response;
  {
    NetShard& shard = shards_[replayer_.shard_of(request.machine)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const OvercommitService& service = replayer_.service();
    response.last_tick = service.LastTick(request.machine);
    response.prediction = service.Predict(request.machine);
    response.limit_sum = service.LimitSum(request.machine);
    const std::span<const int32_t> roster = service.Roster(request.machine);
    response.roster_size = static_cast<int32_t>(roster.size());
    response.roster_hash =
        Fnv1a64(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(roster.data()),
                                         roster.size() * sizeof(int32_t)));
  }
  AppendMessageFrame(WireOp::kMachineQuery, response, out);
  return true;
}

void OvercommitServer::HandleCellQuery(std::vector<uint8_t>& out) {
  CellQueryResponse response;
  {
    std::lock_guard<std::mutex> window_lock(window_mutex_);
    const auto locks = LockAllShards();
    const OvercommitService& service = replayer_.service();
    const int num_machines = replayer_.cell().num_machines();
    response.num_machines = num_machines;
    // Ascending machine order: deterministic FP accumulation.
    for (int m = 0; m < num_machines; ++m) {
      const Interval last = service.LastTick(m);
      response.min_last_tick = m == 0 ? last : std::min(response.min_last_tick, last);
      response.max_last_tick = std::max(response.max_last_tick, last);
      response.prediction_sum += service.Predict(m);
      response.limit_sum += service.LimitSum(m);
    }
    response.events_ingested = replayer_.MutableMetrics().TotalEvents();
  }
  AppendMessageFrame(WireOp::kCellQuery, response, out);
}

bool OvercommitServer::HandleAdmission(std::span<const uint8_t> payload,
                                       std::vector<uint8_t>& out) {
  AdmissionCheckRequest request;
  if (!DecodePayload(payload, request) ||
      request.machine >= replayer_.cell().num_machines()) {
    return Reject("malformed admission-check payload", out);
  }
  AdmissionCheckResponse response;
  {
    NetShard& shard = shards_[replayer_.shard_of(request.machine)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    response.predicted_peak = replayer_.service().Predict(request.machine);
    response.capacity = replayer_.cell().machine_capacity(request.machine);
    response.headroom = response.capacity - response.predicted_peak;
    // The paper's packing rule (Section 3.3): place against predicted peak,
    // not the sum of limits.
    response.admitted = response.predicted_peak + request.task_limit <= response.capacity;
  }
  AppendMessageFrame(WireOp::kAdmissionCheck, response, out);
  return true;
}

void OvercommitServer::RefreshMetricsShardsLocked() {
  // Caller holds window_mutex_ and every shard lock.
  double elapsed = 0.0;
  for (auto& shard : shards_) {
    elapsed += shard.elapsed_seconds;
    shard.elapsed_seconds = 0.0;
  }
  ServeMetrics& metrics = replayer_.MutableMetrics();
  metrics.AddElapsedSeconds(elapsed);
  metrics.SetExtraSection("net", net_metrics_.ToJsonObject());
  replayer_.Metrics();  // refresh the violation/risk summary
}

void OvercommitServer::HandleMetrics(std::vector<uint8_t>& out) {
  MetricsSnapshotResponse response;
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    const auto locks = LockAllShards();
    RefreshMetricsShardsLocked();
    response.json = replayer_.MutableMetrics().ToJson();
  }
  AppendMessageFrame(WireOp::kMetricsSnapshot, response, out);
}

bool OvercommitServer::SealLocked(bool seal, ShutdownResponse* response, std::string* error) {
  // Caller holds window_mutex_. Every shard lock is held from here through
  // the checkpoint write: the mid-stream check below reads shard window
  // state, and SaveCheckpoint serializes the replayer, so a concurrent
  // ingest between the two would produce a torn checkpoint. Commit a
  // fully-streamed window if one is pending so the seal lands on the
  // freshest boundary.
  const auto locks = LockAllShards();
  std::string commit_error;
  if (!TryCommitWindowShardsLocked(&commit_error) && !commit_error.empty()) {
    *error = commit_error;
    return false;
  }
  RefreshMetricsShardsLocked();
  response->next_tick = replayer_.next_tick();
  if (!seal || options_.checkpoint_out.empty()) {
    return true;
  }
  // Refuse to seal while a window is mid-stream: the accumulators already
  // hold pushes past next_tick, and a checkpoint cut there could not resume.
  for (const auto& shard : shards_) {
    if (shard.window_until >= 0 || shard.completed_until >= 0) {
      *error = "cannot seal: an ingest window is still open past tick " +
               std::to_string(replayer_.next_tick());
      return false;
    }
  }
  if (!SaveCheckpoint(replayer_, options_.checkpoint_out, error)) {
    return false;
  }
  response->sealed = true;
  response->checkpoint_path = options_.checkpoint_out;
  sealed_ = true;
  sealed_path_ = options_.checkpoint_out;
  sealed_tick_ = replayer_.next_tick();
  return true;
}

bool OvercommitServer::HandleShutdown(std::span<const uint8_t> payload,
                                      std::vector<uint8_t>& out) {
  ShutdownRequest request;
  if (!DecodePayload(payload, request)) {
    Reject("malformed shutdown payload", out);
    stop_.store(true, std::memory_order_release);
    return false;
  }
  ShutdownResponse response;
  std::string error;
  bool ok;
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    ok = SealLocked(request.seal_checkpoint, &response, &error);
  }
  if (!ok) {
    AppendError("shutdown: " + error, out);
  } else {
    AppendMessageFrame(WireOp::kShutdown, response, out);
  }
  stop_.store(true, std::memory_order_release);
  return false;
}

}  // namespace crf
