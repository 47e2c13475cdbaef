// The fault-tolerant router over N shard endpoints — in-process
// `ServingNode`s (ShardedCluster) or remote `net::RemoteClient`s (the
// `chaos --net` fleet); both are `serving::Frontend`s, so one router
// serves either:
//
//   Submit      ──> normalize ──> holders of the key, breaker-gated,
//                   hedged ──(every holder down)──> any live endpoint,
//                   answer tagged `degraded`
//   SubmitAsync ──> normalize ──> owner endpoint (FNV-1a hash mod N)
//                          └─(hot, replicated on every endpoint)─> round-
//                            robin across endpoints (load spreading)
//
// Hot queries are the head of the Zipf traffic distribution: pinning
// them to their hash owner would melt one shard while the others idle,
// so the cluster replicates their store entries everywhere (see
// store::ShardFilter / ShardedCluster) and the router spreads their
// requests round-robin. Every shard holds an identical copy of a
// replicated entry over the same immutable retrieval stack, so the
// ranking is bit-identical no matter which shard serves it — asserted
// in tests/cluster_test.cc and bench_cluster_scaling.
//
// Queries with no store entry (passthrough) are routed by the same
// hash: any shard computes the identical plain DPH ranking, and hashing
// keeps their per-shard result caches disjoint.
//
// Failure domains (Submit): the router tracks per-endpoint health with
// a consecutive-failure circuit breaker
//
//        failures >= threshold           probe fails
//   Closed ───────────────────> Open <─────────────── Half-open
//     ^                           │  probe_after skipped decisions
//     └── any successful answer ──┴─────────────────> Half-open
//
// and answers every request from the best endpoint still standing: the
// owner (or, for replicated keys, the round-robin replica set, with a
// hedged re-issue on the next replica when the first is slow), then —
// when every holder of the key is down — any live endpoint, whose
// passthrough DPH ranking is returned tagged `degraded` rather than
// erroring. Breaker probing is *count*-based (skipped decisions, not
// wall time), so a scripted failure schedule replays to bit-identical
// breaker transitions — the property the chaos harness
// (cluster/chaos.h) asserts. For a remote endpoint the half-open probe
// is also the reconnect point: a RemoteClient redials on the first
// Submit after its connection died.

#ifndef OPTSELECT_CLUSTER_QUERY_ROUTER_H_
#define OPTSELECT_CLUSTER_QUERY_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/frontend.h"

namespace optselect {
namespace cluster {

/// Per-endpoint circuit breaker state (see the header diagram).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Human-readable state name ("closed" / "open" / "half-open").
const char* BreakerStateName(BreakerState state);

/// One breaker state change, in the order it happened. The sequence of
/// transitions is a pure function of the request/outcome sequence
/// (count-based probing, no wall clock), which is what makes chaos runs
/// comparable transition-for-transition.
struct BreakerTransition {
  uint64_t seq = 0;  ///< 0-based position in the router's transition log
  size_t shard = 0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
};

inline bool operator==(const BreakerTransition& a,
                       const BreakerTransition& b) {
  return a.seq == b.seq && a.shard == b.shard && a.from == b.from &&
         a.to == b.to;
}

/// Fault-tolerance knobs for the failover path (QueryRouter::Submit).
struct FailoverConfig {
  /// Consecutive failed attempts that trip an endpoint's breaker open
  /// (0 clamps to 1).
  size_t breaker_threshold = 3;
  /// Routing decisions skipped past an open endpoint before one probe
  /// request is let through (count-based, so replays are deterministic;
  /// 0 clamps to 1).
  size_t breaker_probe_after = 8;
  /// Hedged retries: when the first replica of a *replicated* key has
  /// not answered within hedge_delay, the request is re-issued on the
  /// next healthy replica and whichever answers first is taken.
  /// Replicas are bit-identical, so hedging affects latency, never the
  /// ranking.
  std::chrono::microseconds hedge_delay{2000};
};

/// Router-level counters (endpoint pick distribution + failover).
struct RouterStats {
  uint64_t routed = 0;             ///< single routing decisions made
  uint64_t replicated_routed = 0;  ///< of those, spread round-robin
  std::vector<uint64_t> per_shard; ///< decisions landing on each endpoint
  // --- failover path (Submit) -----------------------------------------
  uint64_t failover_serves = 0;    ///< Submit calls
  uint64_t retried = 0;            ///< of those, needed > 1 attempt
  uint64_t degraded = 0;           ///< answered off-holder, tagged
  uint64_t dropped = 0;            ///< no endpoint answered (ok == false)
  uint64_t hedges_launched = 0;    ///< hedge re-issues submitted
  uint64_t hedges_won = 0;         ///< answers taken from the hedge
  uint64_t probes = 0;             ///< half-open probe admissions
  uint64_t breaker_opens = 0;      ///< transitions into kOpen (trips and
                                   ///< failed-probe re-opens)
};

/// Routes requests across a fixed set of shard endpoints. Thread-safe:
/// routing state is one atomic round-robin cursor plus counters; breaker
/// state sits under one lock.
class QueryRouter final : public serving::Frontend {
 public:
  /// `endpoints` are non-owned and must outlive the router — and,
  /// because attempt callbacks touch router state from endpoint threads,
  /// every in-process endpoint must be drained (ServingNode::Shutdown)
  /// before the router is destroyed (ShardedCluster guarantees this).
  /// `replicated` holds the normalized keys every endpoint carries (may
  /// be empty). `registry` is where the router registers its counters
  /// (non-owned; the cluster passes its shared registry) — null makes
  /// the router create a private one, reachable via metrics().
  QueryRouter(std::vector<serving::Frontend*> endpoints,
              std::unordered_set<std::string> replicated = {},
              FailoverConfig failover = FailoverConfig(),
              obs::MetricsRegistry* registry = nullptr);

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  size_t num_shards() const { return endpoints_.size(); }

  /// The endpoint that *owns* the query's normalized key (pure hash —
  /// no replication, no counters). Two routers with the same endpoint
  /// count always agree on this, in process or across the wire.
  size_t OwnerOf(std::string_view raw_query) const;

  /// True when the query's normalized key is replicated everywhere.
  bool IsReplicated(std::string_view raw_query) const;

  /// One dispatch decision: the owner, or — for replicated keys — the
  /// next endpoint round-robin. Bumps the routing counters; callers
  /// that only want to *inspect* ownership use OwnerOf.
  size_t Route(std::string_view raw_query);

  /// Frontend: fault-tolerant blocking request (see the header
  /// diagram): attempts the key's holders healthy-first with breaker
  /// gating and hedged retries, falls back to a `degraded`-tagged
  /// passthrough from any live endpoint when every holder is down, and
  /// returns ok == false only when *no* endpoint answered. Every
  /// first-class attempt outcome feeds the per-endpoint breakers; hedge
  /// submissions do not — hedges fire on wall time, and health state
  /// must stay a pure function of the request sequence so scripted
  /// replays are deterministic.
  serving::Response Submit(const serving::Request& request) override;

  /// Frontend: the hash-routed fast path — Route, then the endpoint's
  /// own SubmitAsync. No breakers, no failover: false ⇒ that endpoint
  /// shed the request (queue full / shut down); the callback never
  /// fires.
  bool SubmitAsync(serving::Request request,
                   std::function<void(serving::Response)> callback) override;

  /// The endpoint's current breaker state.
  BreakerState shard_state(size_t shard) const;

  /// The breaker transition log, in order (copied). Bounded: a
  /// long-lived router under sustained failure keeps only the most
  /// recent kMaxBreakerTransitions entries (seq numbers stay global,
  /// so truncation is detectable: front().seq > 0). Chaos-scale runs
  /// never hit the cap.
  std::vector<BreakerTransition> breaker_transitions() const;

  /// Retention bound of the transition log — a flapping endpoint under
  /// production traffic transitions forever; the log is observability,
  /// not an unbounded ledger.
  static constexpr size_t kMaxBreakerTransitions = 8192;

  /// Installs (or clears) a tracer: Submit samples requests
  /// (deterministic 1-in-N on its own sequence counter) and records
  /// attempt / hedge / degraded-failover hops. Not owned; must outlive
  /// the router or be cleared first.
  void set_tracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  /// The registry this router records into (the injected one, or the
  /// private one created when none was supplied).
  const obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Snapshot through the registry handles in effect-before-cause
  /// order: degraded/dropped/retried can never exceed failover_serves
  /// and hedges_won can never exceed hedges_launched within one
  /// snapshot.
  RouterStats stats() const;

 private:
  static constexpr size_t kNoShard = static_cast<size_t>(-1);

  /// One submit-and-wait against an endpoint, optionally hedged onto
  /// `hedge_shard` when the first answer is slower than hedge_delay.
  /// The primary's outcome feeds the breakers; the hedge's never does
  /// (see Submit). ok == false when every submission was rejected or
  /// answered with a failure.
  struct Attempt {
    bool ok = false;
    bool hedge_used = false;  ///< the hedge submission was launched
    serving::Response result;
  };
  Attempt AttemptOn(size_t shard, const serving::Request& request,
                    size_t hedge_shard);

  /// Breaker gate for one routing decision. Closed/half-open endpoints
  /// are admitted; an open one skips breaker_probe_after decisions,
  /// then the next one is admitted as the half-open probe.
  bool AllowAttempt(size_t shard);
  /// Feeds one attempt outcome into the endpoint's breaker.
  void RecordOutcome(size_t shard, bool ok);

  /// Registers every router counter into registry_ (ctor).
  void RegisterMetrics();

  std::vector<serving::Frontend*> endpoints_;
  std::unordered_set<std::string> replicated_;
  FailoverConfig failover_;
  /// Private registry when the ctor got none; declared before the
  /// handles that point into it.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::atomic<uint64_t> round_robin_{0};

  // Registry handles (owned by *registry_; registered effect-before-
  // cause — see RegisterMetrics).
  obs::Counter* routed_ = nullptr;
  obs::Counter* replicated_routed_ = nullptr;
  obs::Counter* failover_serves_ = nullptr;
  obs::Counter* retried_ = nullptr;
  obs::Counter* degraded_ = nullptr;
  obs::Counter* dropped_ = nullptr;
  obs::Counter* hedges_launched_ = nullptr;
  obs::Counter* hedges_won_ = nullptr;
  std::vector<obs::Counter*> per_shard_;

  std::atomic<obs::Tracer*> tracer_{nullptr};
  /// Submit sequence numbers for deterministic sampling.
  std::atomic<uint64_t> trace_seq_{0};

  /// Per-endpoint breaker state + transition log, one lock: health
  /// updates are tiny and the failover path is not the throughput path.
  struct ShardHealth {
    BreakerState state = BreakerState::kClosed;
    size_t consecutive_failures = 0;
    size_t skips_while_open = 0;
  };
  void TransitionLocked(ShardHealth* health, size_t shard,
                        BreakerState to);
  mutable std::mutex health_mu_;
  std::vector<ShardHealth> health_;
  /// deque: TransitionLocked drops the oldest entry at the cap.
  std::deque<BreakerTransition> transitions_;
  uint64_t transition_seq_ = 0;
  uint64_t probes_ = 0;
  uint64_t breaker_opens_ = 0;
};

}  // namespace cluster
}  // namespace optselect

#endif  // OPTSELECT_CLUSTER_QUERY_ROUTER_H_
