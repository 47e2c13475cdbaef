// Async TCP front-end: the wire protocol served off an epoll reactor,
// answering from any serving::Frontend (a ServingNode shard, a whole
// ShardedCluster — the server cannot tell).
//
//   client ──TCP──> Reactor thread                    worker pool
//     accept ── admission (max_connections) ──┐
//     read ── FrameParser ── admission        │
//       (max in-flight per conn) ── SubmitAsync ──> Frontend
//     write <── write queue <── Post(response) <── completion callback
//
// Load shedding is *always* an explicit error frame, never a silent
// drop: a connection over the in-flight cap — or a request the
// frontend's bounded queue refuses — gets ErrorCode::kShed with the
// request id echoed, and the connection stays usable. Only protocol
// violations (FrameParser poisoning) close the connection, after a
// best-effort error frame. A full accept backlog over max_connections
// is answered with a shed error frame and an immediate close.
//
// Thread model: all connection state belongs to the reactor thread.
// Frontend completion callbacks (worker threads) Post() the encoded
// response bytes back by connection *id* — never by pointer — so a
// connection that died mid-request simply drops the bytes.

#ifndef OPTSELECT_NET_SERVER_H_
#define OPTSELECT_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/netpoll.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serving/frontend.h"

namespace optselect {
namespace net {

/// Server sizing + admission knobs.
struct NetServerConfig {
  /// Listen address (loopback by default — shard fleets on one host).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Accepted-connection ceiling; further accepts are answered with a
  /// shed error frame and closed.
  size_t max_connections = 64;
  /// Per-connection in-flight request ceiling; beyond it each request
  /// is shed with an error frame (connection stays open).
  size_t max_inflight_per_conn = 128;
  /// Optional registry for net_* counters (non-owned, must outlive the
  /// server).
  obs::MetricsRegistry* registry = nullptr;
};

/// Point-in-time server counters (all monotone).
struct NetServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections
  uint64_t connections_closed = 0;
  uint64_t requests = 0;        // well-formed request frames admitted
  uint64_t responses = 0;       // response frames queued
  uint64_t shed = 0;            // error frames with ErrorCode::kShed
  uint64_t protocol_errors = 0;  // poisoned streams (closed)
};

/// One listening socket speaking the wire protocol for one Frontend.
class NetServer {
 public:
  /// `frontend` is non-owned and must outlive the server; it must also
  /// not be shut down until after Stop() returns (completion callbacks
  /// reference server state).
  NetServer(serving::Frontend* frontend, NetServerConfig config);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the reactor thread. False on bind or
  /// reactor failure (error in last_error()).
  bool Start();

  /// Closes the listener and every connection, stops the reactor, and
  /// waits until every in-flight frontend completion has landed.
  /// Idempotent.
  void Stop();

  /// Bound port (after Start; useful with config.port == 0).
  uint16_t port() const { return bound_port_; }

  const std::string& last_error() const { return last_error_; }

  NetServerStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    FrameParser parser;
    std::string outbuf;       // queued bytes; [outoff, size) not yet sent
    size_t outoff = 0;        // sent prefix of outbuf (write cursor)
    size_t inflight = 0;      // requests submitted, response not queued
    bool writable_armed = false;
    bool draining = false;    // close once outbuf flushes
  };

  void OnAcceptable();
  void OnConnEvent(uint64_t conn_id, uint32_t events);
  void HandleFrame(uint64_t conn_id, Connection* conn, Frame frame);
  /// Queues bytes and flushes what the socket will take now; arms
  /// EPOLLOUT for the rest.
  void QueueWrite(uint64_t conn_id, Connection* conn, std::string bytes);
  void FlushWrites(uint64_t conn_id, Connection* conn);
  void CloseConn(uint64_t conn_id);
  /// Called on the reactor thread when a frontend completion arrives.
  void OnCompletion(uint64_t conn_id, uint64_t request_id,
                    const serving::Response& response);

  serving::Frontend* frontend_;
  NetServerConfig config_;
  Reactor reactor_;
  std::thread reactor_thread_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::string last_error_;
  bool started_ = false;
  bool stopped_ = false;

  // Reactor-thread-only connection table.
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;

  // In-flight frontend requests whose completion has not yet been
  // posted; Stop() blocks on this so callbacks never outlive us.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  size_t inflight_total_ = 0;

  // Counters (atomics: bumped on reactor + worker threads).
  std::atomic<uint64_t> n_accepted_{0};
  std::atomic<uint64_t> n_rejected_{0};
  std::atomic<uint64_t> n_closed_{0};
  std::atomic<uint64_t> n_requests_{0};
  std::atomic<uint64_t> n_responses_{0};
  std::atomic<uint64_t> n_shed_{0};
  std::atomic<uint64_t> n_protocol_errors_{0};
};

}  // namespace net
}  // namespace optselect

#endif  // OPTSELECT_NET_SERVER_H_
