// The one serving contract every front end implements: a single
// request/response pair,
//
//     Request  ──> Frontend::Submit ──> Response         (blocking)
//     Request  ──> Frontend::SubmitAsync ──> callback    (shed-aware)
//
// implemented by
//
//   serving::ServingNode       — one node's queue + worker pool
//   cluster::QueryRouter       — the fault-tolerant router over N
//                                Frontend endpoints (Submit == failover
//                                path, SubmitAsync == hash-routed)
//   cluster::ShardedCluster    — N in-process nodes behind a QueryRouter
//   net::RemoteClient          — one TCP connection speaking the wire
//                                protocol (net/wire.h); a remote fleet
//                                is a QueryRouter over RemoteClients
//
// so local and remote serving are interchangeable *by construction*:
// the replay drivers, the chaos harnesses, and the benches accept a
// Frontend and cannot tell (except through Response flags) whether the
// answer crossed a socket. tests/frontend_test.cc, tests/net_test.cc
// and bench_net_serving assert the rankings are bit-identical across
// implementations over the same store. Response is the single result
// struct for the whole serving stack.

#ifndef OPTSELECT_SERVING_FRONTEND_H_
#define OPTSELECT_SERVING_FRONTEND_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace optselect {
namespace serving {

/// One serving request. The raw (un-normalized) query plus the wire
/// metadata that rides along when the request crosses a socket; local
/// callers usually set only `query`.
struct Request {
  std::string query;
  /// Wire correlation id: the network server echoes it on the response
  /// frame so a pipelined client can match answers to requests. Local
  /// front ends ignore it (0 for direct calls).
  uint64_t id = 0;

  Request() = default;
  explicit Request(std::string q, uint64_t request_id = 0)
      : query(std::move(q)), id(request_id) {}
};

/// Outcome of one request — the one result struct shared by every
/// Frontend implementation (node, cluster, remote).
struct Response {
  /// False when the request was shed at admission, the node was shut
  /// down, an (injected) store-read fault failed the compute, or — for
  /// remote front ends — the connection died / the server answered with
  /// an error frame. The cluster's failover tier treats any ok == false
  /// answer as a shard failure and retries elsewhere.
  bool ok = false;
  /// True when the fault-tolerant path answered from a shard that does
  /// not hold the query's store entry (dead-owner fallback): the
  /// ranking is the plain DPH top-k, not the stored diversification.
  /// Set by the failover path, QueryRouter::Submit.
  bool degraded = false;
  /// True when a hedged retry (a re-issue of a slow replicated-key
  /// request on another replica) produced this answer. Replicas are
  /// bit-identical, so the ranking is unaffected — observability only.
  bool hedged = false;
  /// True when the query hit the store and OptSelect re-ranked it.
  bool diversified = false;
  /// True when the ranking was served from the result cache.
  bool cache_hit = false;
  /// True when the ranking was reused from an identical request in the
  /// same micro-batch (set even when the cache is disabled).
  bool batch_dedup = false;
  /// True when the ranking was computed over the entry's compiled
  /// query-plan blocks (store v3/v4) instead of per-request retrieval +
  /// utility computation. Cached results keep the flag of the compute
  /// that filled them.
  bool plan_served = false;
  /// True when the ranking was computed by the streaming cold path
  /// (scan + bounded-state maintain) rather than materialize-then-
  /// select. Mutually exclusive with plan_served; bit-identical either
  /// way. Cached results keep the flag of the compute that filled them.
  bool streaming_served = false;
  /// Number of specializations diversified against (0 if passthrough).
  size_t num_specializations = 0;
  /// Content version of the store snapshot that computed this ranking
  /// (cached results keep the version they were computed under).
  uint64_t store_version = 0;
  /// Final document ranking.
  std::vector<DocId> ranking;
};

/// The unified serving interface: one Request in, one Response out.
/// Implementations must be safe to call from multiple threads.
class Frontend {
 public:
  virtual ~Frontend() = default;

  /// Blocking request/response — the canonical serving call. Always
  /// returns (ok == false on failure); never throws on I/O problems.
  virtual Response Submit(const Request& request) = 0;

  /// Non-blocking request: enqueue and return immediately; `callback`
  /// fires exactly once on some thread unless this returns false (load
  /// shed / shut down), in which case it never fires. The callback may
  /// run on the calling thread before this returns, so a caller must
  /// not hold, across the call, a lock its callback takes. The default
  /// adapter always does that: it runs the blocking Submit inline —
  /// correct for implementations without a native queue (e.g. a
  /// blocking socket client), overridden by the queue-backed ones. A
  /// ServingNode does it for every answer that needs no retrieval — a
  /// cached ranking, or a selection over a compiled plan — given at
  /// admission.
  virtual bool SubmitAsync(Request request,
                           std::function<void(Response)> callback) {
    callback(Submit(request));
    return true;
  }
};

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_FRONTEND_H_
