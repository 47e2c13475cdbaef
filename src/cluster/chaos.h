// Deterministic chaos scenarios for the fault-tolerant cluster.
//
// A chaos run replays a seeded Zipf query mix through
// ShardedCluster::Submit (the router's failover path), strictly one
// request at a time, while a request-indexed schedule kills, revives,
// and slows shards through their ScriptedFaultInjectors. Because every
// moving part is keyed on counts — the mix on its RNG seed, the
// schedule on request indices, breaker probing on skipped decisions —
// two runs of the same scenario produce the *same* request outcomes and
// the *same* breaker transition log, which turns "does failover work?"
// into an equality assertion instead of a soak test:
//
//   1. zero dropped requests while >= 1 shard is dead mid-run;
//   2. every non-degraded answer bit-identical to a no-fault run of the
//      same mix (replicas and hedges cannot change a ranking);
//   3. every degraded answer bit-identical to the plain DPH passthrough
//      a store-less node computes (the tagged partial result);
//   4. outcome vectors and breaker transition logs identical between
//      two runs of the same seed.
//
// The only intentionally non-deterministic residue is *which* copy wins
// a hedge race — replicas are bit-identical, so the outcome vector
// (answered / degraded / diversified / ranking hash) is unaffected; the
// hedged flag is reported as an aggregate count, never compared.
//
// Used by `optselect chaos` (tools/optselect_cli.cc) and by
// tests/fault_injection_test.cc.

#ifndef OPTSELECT_CLUSTER_CHAOS_H_
#define OPTSELECT_CLUSTER_CHAOS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/sharded_cluster.h"
#include "obs/trace.h"
#include "pipeline/testbed.h"
#include "querylog/popularity.h"
#include "serving/fault_injector.h"

namespace optselect {
namespace cluster {

/// One scheduled fault action, applied just before request `at_request`
/// is served.
struct ChaosEvent {
  enum class Action {
    kKill,       ///< shard rejects all admissions (dead process)
    kRevive,     ///< shard accepts again
    kSlowReads,  ///< shard's store reads stall by slow_read_delay
    kFastReads,  ///< shard's store reads return to full speed
  };
  size_t at_request = 0;
  Action action = Action::kKill;
  size_t shard = 0;
};

/// Scenario shape. Everything that influences outcomes is a count or a
/// seed; the two duration knobs influence only latency (hedging) —
/// never which shard set an outcome's content.
struct ChaosConfig {
  size_t requests = 4000;
  double zipf_skew = 1.0;
  /// Seeds the Zipf mix sampling (BuildChaosMix).
  uint64_t seed = 99;
  size_t num_shards = 3;
  size_t replicate_hot = 2;
  FailoverConfig failover;
  /// Injected store-read latency while a kSlowReads window is active.
  /// Keep well above failover.hedge_delay so hedges actually fire.
  std::chrono::microseconds slow_read_delay{20000};
  /// Per-shard serving knobs (queue sized by the runner).
  serving::ServingConfig node;
  /// Fault schedule, sorted by at_request. Keep kSlowReads targets
  /// disjoint from kKill targets: a hedge straggler's late success on a
  /// slowed shard must never race a breaker transition on that shard,
  /// or the transition log stops being comparable across runs.
  std::vector<ChaosEvent> schedule;
  /// Deterministic 1-in-N trace sampling on the router's failover
  /// path. The sequential replay makes the router's trace sequence
  /// number equal the request index, so two runs of the same seed
  /// sample the same requests — which is what VerifyTraceInvariants
  /// asserts.
  uint64_t trace_sample_every = 16;
};

/// What one request produced. Excludes the hedged flag on purpose (see
/// the header); operator== is the determinism comparison.
struct ChaosRequestOutcome {
  bool answered = false;
  bool degraded = false;
  bool diversified = false;
  uint64_t ranking_hash = 0;
};

inline bool operator==(const ChaosRequestOutcome& a,
                       const ChaosRequestOutcome& b) {
  return a.answered == b.answered && a.degraded == b.degraded &&
         a.diversified == b.diversified && a.ranking_hash == b.ranking_hash;
}
inline bool operator!=(const ChaosRequestOutcome& a,
                       const ChaosRequestOutcome& b) {
  return !(a == b);
}

/// One run's full record.
struct ChaosReport {
  std::vector<ChaosRequestOutcome> outcomes;  ///< one per request, in order
  std::vector<BreakerTransition> transitions;
  RouterStats router;
  size_t dropped = 0;
  size_t degraded = 0;
  /// Answers whose ranking the streaming cold path computed, counted
  /// from the responses. Not the shards' own counters: a hedge launched
  /// on wall time computes its request a second time on another
  /// replica, so those sums differ between same-seed runs. Zero when
  /// every stored query serves off a compiled plan (plans preempt the
  /// cold path) — run a scenario on a plans-off store to exercise
  /// streaming under chaos.
  uint64_t streaming_served = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  /// Sampled router traces, in commit (= request) order. The ring is
  /// sized to the run, so nothing is evicted: every sampled request is
  /// here.
  std::vector<obs::Trace> traces;
  /// Every breaker transition the tracer observed (not sampled) —
  /// appended under the same lock as ChaosReport::transitions, so the
  /// two logs must match entry for entry.
  std::vector<obs::Tracer::BreakerEvent> trace_breakers;
};

/// FNV-1a over a ranking's doc ids — the outcome fingerprint.
uint64_t RankingHash(const std::vector<DocId>& ranking);

/// The seeded Zipf mix a scenario replays (same sampler as `loadtest`).
std::vector<std::string> BuildChaosMix(
    const querylog::PopularityMap& popularity, const ChaosConfig& config);

/// The default schedule: a slow-read window on shard 0 (hedging), then
/// shard 1 killed and revived, then — with >= 3 shards — shard 2 killed
/// and revived. At most one shard is ever dead, and slowed shards are
/// never killed (see ChaosConfig::schedule). Fractions of `requests`,
/// so the same shape scales from CI smokes to long soaks.
std::vector<ChaosEvent> DefaultChaosSchedule(size_t requests,
                                             size_t num_shards);

/// Runs one scenario: builds a fresh cluster whose shards serve
/// zero-copy views of `mapped` (a store file's mapping or an in-memory
/// store's image), installs one ScriptedFaultInjector per shard, and
/// replays the mix sequentially while applying the schedule. The
/// cluster is torn down before returning.
ChaosReport RunChaosScenario(
    std::shared_ptr<const store::MappedStoreFile> mapped,
    const pipeline::Testbed* testbed,
    const querylog::PopularityMap* popularity,
    const std::vector<std::string>& mix, const ChaosConfig& config);

/// The chaos acceptance checks over two fault runs, a no-fault
/// reference run, and the store-less passthrough references for every
/// degraded answer. Zero everywhere == pass.
struct ChaosVerdict {
  size_t dropped = 0;                 ///< requests nobody answered
  size_t outcome_mismatches = 0;      ///< run A vs run B outcome diffs
  size_t transition_mismatches = 0;   ///< breaker log diffs (or length)
  size_t healthy_divergences = 0;     ///< non-degraded vs no-fault diffs
  size_t degraded_divergences = 0;    ///< degraded vs passthrough diffs
  bool breaker_opened = false;        ///< some breaker actually tripped
  bool ok() const {
    return dropped == 0 && outcome_mismatches == 0 &&
           transition_mismatches == 0 && healthy_divergences == 0 &&
           degraded_divergences == 0;
  }
};

/// Deterministically counts the hedge opportunities a scenario
/// guarantees: replicated-key requests whose round-robin first pick
/// lands on a shard inside its kSlowReads window (where every breaker
/// is closed — the schedule keeps slow and kill targets disjoint).
/// Mirrors the router's cursor semantics (starts at 0, advances once
/// per replicated request) and the runner's event application
/// (at_request <= r, stable order). Returns 0 — "no hedge can be
/// required" — when there is nothing replicated, or slow_read_delay
/// is not comfortably above hedge_delay (less than 2x), since then a
/// hedge may legitimately never fire. The chaos CLI enforces its hedge
/// check only when this is > 0.
size_t CountHedgeOpportunities(const store::MappedStoreFile& store,
                               const querylog::PopularityMap& popularity,
                               const std::vector<std::string>& mix,
                               const ChaosConfig& config);

/// The degraded-answer references: RankingHash of what a *store-less*
/// node (same testbed, same node params) answers for every distinct
/// query in the mix, keyed by the raw mix string — exactly the plain
/// DPH passthrough a dead owner's keys must degrade to. Shared by the
/// chaos CLI and the tests so the check cannot drift between them.
std::unordered_map<std::string, uint64_t> BuildPassthroughHashes(
    const pipeline::Testbed* testbed, const serving::ServingConfig& node,
    const std::vector<std::string>& mix);

/// Compares two same-seed fault runs against each other, the no-fault
/// run, and per-query passthrough hashes (see BuildPassthroughHashes).
ChaosVerdict VerifyChaosRuns(
    const ChaosReport& run_a, const ChaosReport& run_b,
    const ChaosReport& no_fault, const std::vector<std::string>& mix,
    const std::unordered_map<std::string, uint64_t>& passthrough_hashes);

/// Trace-level acceptance checks over the same two runs. Zero
/// everywhere == pass.
struct TraceVerdict {
  /// Requests the sampling rule says must be traced, per run.
  size_t sampled_expected = 0;
  size_t sampled_a = 0;
  size_t sampled_b = 0;
  /// Traces whose outcome fields (ok/degraded/diversified/ranking_hash
  /// — hedged is excluded, like ChaosRequestOutcome) disagree with the
  /// run's own outcome vector at the trace's seq, both runs summed.
  size_t outcome_mismatches = 0;
  /// Entry-for-entry diffs between each run's tracer breaker log and
  /// its BreakerTransition log (or a length difference), both runs.
  size_t breaker_mismatches = 0;
  /// Run A vs run B: sampled seq sequences or per-trace outcomes
  /// differ (the determinism half of the check).
  size_t cross_run_mismatches = 0;
  bool ok() const {
    return sampled_a == sampled_expected && sampled_b == sampled_expected &&
           outcome_mismatches == 0 && breaker_mismatches == 0 &&
           cross_run_mismatches == 0;
  }
};

/// Asserts the trace invariants on two same-seed fault runs: every
/// sampled request is traced exactly once, each trace agrees with the
/// report's outcome vector, each tracer breaker log mirrors the
/// router's transition log, and the sampled sequences are identical
/// across the runs.
TraceVerdict VerifyTraceInvariants(const ChaosReport& run_a,
                                   const ChaosReport& run_b,
                                   const ChaosConfig& config);

}  // namespace cluster
}  // namespace optselect

#endif  // OPTSELECT_CLUSTER_CHAOS_H_
