// Client side of the wire protocol: RemoteClient, one TCP connection
// to one shard server.
//
// RemoteClient is a blocking request/response client — the remote twin
// of calling ServingNode::Submit in process. It also exposes a
// pipelined mode (`SubmitPipelined`) that keeps a window of requests in
// flight and matches answers by request id, since the server's worker
// pool may answer out of order.
//
// It implements serving::Frontend, so the replay drivers, loadtest and
// chaos cannot tell remote serving from local — and a remote fleet is
// simply a cluster::QueryRouter over N RemoteClients: the same owner
// hash, breakers, probing and degraded fallback as the in-process
// ShardedCluster. A client redials its endpoint on the first Submit
// after its connection died, so under the router the half-open breaker
// probe is the reconnect point.

#ifndef OPTSELECT_NET_CLIENT_H_
#define OPTSELECT_NET_CLIENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.h"
#include "serving/frontend.h"

namespace optselect {
namespace net {

/// One host:port shard server address.
struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

/// Parses "host:port" (host may be empty ⇒ 127.0.0.1). False on a
/// missing/invalid port.
bool ParseEndpoint(const std::string& spec, Endpoint* out);

/// Parses "host:port,host:port,...". False if any element fails.
bool ParseEndpointList(const std::string& spec, std::vector<Endpoint>* out);

/// Blocking wire-protocol client over one TCP connection. Thread-safe
/// (a mutex serializes requests — use one client per thread, or the
/// pipelined mode, for concurrency). Implements serving::Frontend via
/// the default inline SubmitAsync adapter.
class RemoteClient : public serving::Frontend {
 public:
  RemoteClient() = default;
  ~RemoteClient() override;
  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  /// Blocking connect. False on failure (reason in last_error()). The
  /// endpoint is remembered either way: Submit redials it whenever the
  /// connection is down.
  bool Connect(const std::string& host, uint16_t port);
  /// Closes the connection and forgets the endpoint (no redial).
  void Close();

  /// One blocking request/response round trip. A dead connection is
  /// redialed first (counted in reconnects() when the dial succeeds).
  /// ok == false when the endpoint is unreachable, the connection dies
  /// mid-request, the server answers with an error frame (shed, bad
  /// request), or the response is malformed (connection closed in that
  /// case — the stream is unsynchronized).
  serving::Response Submit(const serving::Request& request) override;

  /// Pipelined replay of `queries`: keeps up to `window` requests in
  /// flight, matches out-of-order answers by id, returns responses in
  /// query order. A dead connection fails the remaining tail
  /// (ok == false), never blocks forever.
  std::vector<serving::Response> SubmitPipelined(
      const std::vector<std::string>& queries, size_t window = 32);

  /// Error-frame code of the last failed Submit (meaningful only when
  /// the returned Response had ok == false and the server answered).
  ErrorCode last_error_code() const { return last_code_; }
  const std::string& last_error() const { return last_error_; }

  /// Successful redials by Submit after the connection died (the first
  /// Connect is not counted).
  uint64_t reconnects() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reconnects_;
  }

 private:
  bool ConnectLocked();
  bool SendAll(const char* data, size_t size);
  /// Blocks until one frame parses (or the stream dies/poisons).
  bool ReadFrame(Frame* frame);
  void CloseLocked();

  mutable std::mutex mu_;
  int fd_ = -1;
  /// The endpoint Submit redials; empty host ⇒ none (never connected,
  /// or Close()d).
  std::string host_;
  uint16_t port_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t next_id_ = 1;
  FrameParser parser_;
  ErrorCode last_code_ = ErrorCode::kBadRequest;
  std::string last_error_;
};

}  // namespace net
}  // namespace optselect

#endif  // OPTSELECT_NET_CLIENT_H_
