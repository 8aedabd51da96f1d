// OvercommitServer: the TCP front end of the serve tier (DESIGN.md §10).
//
// Wraps a push-mode StreamReplayer behind the CRFNET1 wire protocol: an
// acceptor thread plus one worker thread per connection, each connection
// decoding batched requests and answering ingest / query / admission /
// metrics / shutdown ops. Per-shard ingest state is cache-line padded
// (NetShard, the network twin of the replay ShardState) and guarded by a
// per-shard mutex, so clients that drive disjoint shards never contend.
//
// The ingest protocol preserves the replayer's bit-identity contract. Within
// a shard, clients must stream machines one at a time in ascending machine
// order, each machine's ticks in ascending order, over a window
// [next_tick, W) shared by every shard (the first shard to open a window
// fixes W; the rest must match). When the last shard finishes its machines,
// the server commits the window (StreamReplayer::CommitPushedWindow) — this
// exactly replays AdvanceShard's machine-outer loop, so every per-machine
// number, the per-shard cell series, and a checkpoint sealed at the
// committed boundary are bit-identical to an in-process Advance over the
// same trace.
//
// Every byte off the wire is validated: the frame layer checks
// magic/version/length/checksum, the payload decoders bounds-check each
// field, the ingest handler enforces the window protocol above, and each
// tick's events are checked against the machine's roster by the kernel that
// applies them (MachineRoster::Apply: departures resident and carrying their
// arrival limit, arrivals not resident, exactly one sample per resident task
// in roster order). A rejected tick changes nothing, so malformed input
// produces a kError response and a closed connection, never a CHECK-abort.
// A protocol error mid-batch leaves the validly-applied prefix ingested and
// drops the connection; the shard's streaming cursor tracks the applied
// prefix tick by tick, so a reconnecting client resumes at the first
// unapplied tick.

#ifndef CRF_NET_SERVER_H_
#define CRF_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crf/net/net_metrics.h"
#include "crf/net/wire.h"
#include "crf/serve/replay.h"

namespace crf {

struct NetServerOptions {
  // Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; port() reports the actual binding.
  int port = 0;
  // Connections beyond this are accepted and immediately closed.
  int max_connections = 64;
  // Destination for the shutdown op's sealed CRFCKPT1; empty disables
  // sealing (the shutdown op then just stops the server).
  std::string checkpoint_out;
};

class OvercommitServer {
 public:
  // `replayer` must outlive the server and must not be touched by other
  // threads between Start() and Wait()/Stop() returning.
  OvercommitServer(StreamReplayer& replayer, const NetServerOptions& options);
  ~OvercommitServer();

  OvercommitServer(const OvercommitServer&) = delete;
  OvercommitServer& operator=(const OvercommitServer&) = delete;

  // Binds, listens, and spawns the acceptor. Returns false with a
  // diagnostic on any socket failure.
  bool Start(std::string* error);

  // The bound port (valid after Start; resolves port 0 bindings).
  int port() const { return port_; }

  // Blocks until a shutdown op arrives or `external_stop` becomes true
  // (polled; pass nullptr to wait for the op alone). An external stop seals
  // a checkpoint exactly like the shutdown op when the committed state
  // allows it; a seal failure is reported on stderr (there is no client to
  // carry the error frame).
  void Wait(const std::atomic<bool>* external_stop = nullptr);

  // Asynchronously requests a stop without sealing (tests/teardown).
  void RequestStop();

  // Post-shutdown report: whether a checkpoint was sealed and where.
  bool sealed() const { return sealed_; }
  const std::string& sealed_path() const { return sealed_path_; }
  Interval sealed_tick() const { return sealed_tick_; }

  const NetMetrics& net_metrics() const { return net_metrics_; }

 private:
  // Per-shard ingest state, padded like the replay ShardState: one line per
  // shard so concurrent connections on different shards never share a
  // counter or its mutex.
  struct alignas(64) NetShard {
    std::mutex mutex;
    int begin_machine = 0;
    int end_machine = 0;
    // Open ingest window [window_from, window_until); window_until == -1
    // when no window is open on this shard.
    Interval window_from = 0;
    Interval window_until = -1;
    // Completed-but-uncommitted window boundary (-1 once committed).
    Interval completed_until = -1;
    // The machine currently being streamed and its next expected tick.
    int next_machine = 0;
    Interval machine_tick = 0;
    // Wall-clock seconds spent in ingest on this shard (folded into
    // ServeMetrics at snapshot/shutdown).
    double elapsed_seconds = 0.0;
  };

  // One finished connection worker, joinable once `done` is set.
  struct ConnectionThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  // Joins and discards connection threads whose loop has finished (called
  // from the acceptor each poll round, so churn does not accumulate
  // joinable handles).
  void ReapConnectionThreads();
  void ConnectionLoop(int fd, ConnectionStats* stats);
  // Dispatches one decoded frame; appends the response frame to `out`.
  // Returns false when the connection must close (shutdown or protocol
  // error after the response is flushed).
  bool HandleFrame(WireOp op, std::span<const uint8_t> payload, ConnectionStats* stats,
                   std::vector<uint8_t>& out);

  void HandleHello(std::span<const uint8_t> payload, std::vector<uint8_t>& out);
  // Returns false on protocol error (kError appended, connection closes).
  bool HandleIngest(std::span<const uint8_t> payload, ConnectionStats* stats,
                    std::vector<uint8_t>& out);
  bool HandleMachineQuery(std::span<const uint8_t> payload, std::vector<uint8_t>& out);
  void HandleCellQuery(std::vector<uint8_t>& out);
  bool HandleAdmission(std::span<const uint8_t> payload, std::vector<uint8_t>& out);
  void HandleMetrics(std::vector<uint8_t>& out);
  bool HandleShutdown(std::span<const uint8_t> payload, std::vector<uint8_t>& out);

  // Acquires every shard lock in shard order. Caller holds window_mutex_
  // (the only sanctioned order: window_mutex_ first, then shard locks).
  std::vector<std::unique_lock<std::mutex>> LockAllShards();
  // Commits the window `until` if every populated shard has completed it.
  // Caller holds window_mutex_ and no shard locks (the wrapper takes them).
  // Returns false with a diagnostic if the replayer rejects the commit
  // (server bug / lagging machine).
  bool TryCommitWindow(std::string* error);
  // The commit body; caller holds window_mutex_ and every shard lock.
  bool TryCommitWindowShardsLocked(std::string* error);
  // Folds per-shard elapsed seconds into ServeMetrics and refreshes the
  // "net" section. Caller holds window_mutex_ and every shard lock.
  void RefreshMetricsShardsLocked();
  // The shutdown-seal body shared by the shutdown op and external stops:
  // commits a fully-streamed window if one is pending, then seals a
  // checkpoint when `seal` is set and checkpoint_out is configured. Caller
  // holds window_mutex_; every shard lock is held from the commit through
  // the checkpoint write, so ingest cannot open a window or push state
  // between the mid-stream check and the serialization.
  bool SealLocked(bool seal, ShutdownResponse* response, std::string* error);

  void AppendError(const std::string& message, std::vector<uint8_t>& out);
  // Counts a rejected frame and appends its error response; returns false
  // (the connection closes).
  bool Reject(const std::string& message, std::vector<uint8_t>& out);

  StreamReplayer& replayer_;
  NetServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;

  // Orders window open/commit and guards replayer-wide state (next_tick,
  // cross-shard queries, metrics, seal). Never taken while holding a shard
  // lock; the multi-lock paths take window_mutex_ first, then shard locks
  // in shard order.
  std::mutex window_mutex_;
  std::vector<NetShard> shards_;

  NetMetrics net_metrics_;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::mutex threads_mutex_;
  std::vector<std::unique_ptr<ConnectionThread>> connection_threads_;

  bool sealed_ = false;
  std::string sealed_path_;
  Interval sealed_tick_ = 0;
};

}  // namespace crf

#endif  // CRF_NET_SERVER_H_
