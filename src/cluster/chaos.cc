#include "cluster/chaos.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "serving/cache_key.h"
#include "serving/replay.h"
#include "util/hash.h"
#include "util/rng.h"

namespace optselect {
namespace cluster {

uint64_t RankingHash(const std::vector<DocId>& ranking) {
  return util::Fnv1a64(ranking.data(), ranking.size() * sizeof(DocId));
}

std::vector<std::string> BuildChaosMix(
    const querylog::PopularityMap& popularity, const ChaosConfig& config) {
  util::Rng rng(config.seed);
  return querylog::ZipfQueryMix(popularity, config.requests,
                                config.zipf_skew, &rng);
}

std::vector<ChaosEvent> DefaultChaosSchedule(size_t requests,
                                             size_t num_shards) {
  using Action = ChaosEvent::Action;
  std::vector<ChaosEvent> schedule;
  if (requests == 0 || num_shards < 2) return schedule;
  auto at = [&](size_t num, size_t den) { return requests * num / den; };

  // Slow window on shard 0: long enough to fire hedges on replicated
  // keys, short enough that stragglers drain long before the first
  // kill (shard 0 is never killed — see ChaosConfig::schedule).
  schedule.push_back({at(1, 8), Action::kSlowReads, 0});
  schedule.push_back({at(3, 16), Action::kFastReads, 0});

  // Kill shard 1 for a quarter of the run, then revive it.
  schedule.push_back({at(1, 4), Action::kKill, 1});
  schedule.push_back({at(1, 2), Action::kRevive, 1});

  // With a third shard available, a second, shorter outage.
  if (num_shards >= 3) {
    schedule.push_back({at(5, 8), Action::kKill, 2});
    schedule.push_back({at(3, 4), Action::kRevive, 2});
  }
  return schedule;
}

ChaosReport RunChaosScenario(
    std::shared_ptr<const store::MappedStoreFile> mapped,
    const pipeline::Testbed* testbed,
    const querylog::PopularityMap* popularity,
    const std::vector<std::string>& mix, const ChaosConfig& config) {
  ClusterConfig cluster_config;
  cluster_config.num_shards = std::max<size_t>(1, config.num_shards);
  cluster_config.replicate_hot = config.replicate_hot;
  cluster_config.failover = config.failover;
  cluster_config.node = config.node;
  // The runner is strictly sequential (one request in flight, plus at
  // most one hedge), so a small queue suffices; size it anyway so an
  // injected slowdown can never turn into accidental load shedding.
  cluster_config.node.queue_capacity =
      std::max<size_t>(cluster_config.node.queue_capacity, 64);
  ShardedCluster cluster(std::move(mapped), testbed, popularity,
                         cluster_config);

  // Router-only tracer: with the sequential replay the router's trace
  // sequence number IS the request index, so sampled traces line up
  // with the outcome vector by seq. Installed on the router alone —
  // shard-level traces run on independent sequence counters and would
  // interleave into the ring. Ring sized to the run: nothing evicted.
  obs::TracerConfig trace_config;
  trace_config.sample_every = config.trace_sample_every;
  trace_config.ring_capacity = mix.size() + 1;
  obs::Tracer tracer(trace_config);
  cluster.router().set_tracer(&tracer);

  std::vector<std::unique_ptr<serving::ScriptedFaultInjector>> injectors;
  injectors.reserve(cluster.num_shards());
  for (size_t i = 0; i < cluster.num_shards(); ++i) {
    injectors.push_back(std::make_unique<serving::ScriptedFaultInjector>());
    cluster.shard(i)->set_fault_injector(injectors.back().get());
  }

  std::vector<ChaosEvent> schedule = config.schedule;
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at_request < b.at_request;
                   });

  ChaosReport report;
  report.outcomes.resize(mix.size());
  size_t next_event = 0;
  auto apply_due = [&](size_t request_index) {
    while (next_event < schedule.size() &&
           schedule[next_event].at_request <= request_index) {
      const ChaosEvent& event = schedule[next_event++];
      if (event.shard >= injectors.size()) continue;
      serving::ScriptedFaultInjector* injector =
          injectors[event.shard].get();
      switch (event.action) {
        case ChaosEvent::Action::kKill:
          injector->SetDead(true);
          break;
        case ChaosEvent::Action::kRevive:
          injector->SetDead(false);
          break;
        case ChaosEvent::Action::kSlowReads:
          injector->SetStoreReadDelay(config.slow_read_delay);
          break;
        case ChaosEvent::Action::kFastReads:
          injector->SetStoreReadDelay(std::chrono::microseconds(0));
          break;
      }
    }
  };

  serving::ReplayOutcome replay = serving::ReplaySequential(
      &cluster, mix, apply_due,
      [&](size_t i, const serving::Response& result) {
        ChaosRequestOutcome& outcome = report.outcomes[i];
        outcome.answered = result.ok;
        outcome.degraded = result.degraded;
        outcome.diversified = result.diversified;
        outcome.ranking_hash = RankingHash(result.ranking);
        if (!result.ok) ++report.dropped;
        if (result.degraded) ++report.degraded;
        if (result.streaming_served) ++report.streaming_served;
      });
  report.wall_ms = replay.wall_ms;
  report.qps = replay.qps;

  // Drain the shards before reading the transition log so a hedge
  // straggler cannot append after the copy.
  cluster.Shutdown();
  report.transitions = cluster.router().breaker_transitions();
  report.router = cluster.router().stats();
  for (const serving::ServingStats& shard : cluster.Stats().per_shard) {
    report.admission_answers.push_back(shard.admission_answers);
  }
  report.traces = tracer.Recent();
  cluster.router().set_tracer(nullptr);
  return report;
}

size_t CountHedgeOpportunities(const store::MappedStoreFile& store,
                               const querylog::PopularityMap& popularity,
                               const std::vector<std::string>& mix,
                               const ChaosConfig& config) {
  const size_t n = std::max<size_t>(1, config.num_shards);
  if (config.replicate_hot == 0 || n < 2) return 0;
  // A hedge fires only if the slowed primary is still unanswered after
  // hedge_delay; require 2x headroom before promising one.
  if (config.slow_read_delay < 2 * config.failover.hedge_delay) return 0;

  std::vector<std::string> hot =
      HottestStoredKeys(store, popularity, config.replicate_hot);
  std::unordered_set<std::string> replicated(hot.begin(), hot.end());

  std::vector<ChaosEvent> schedule = config.schedule;
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at_request < b.at_request;
                   });
  std::vector<char> slowed(n, 0);
  size_t next_event = 0;
  uint64_t round_robin = 0;
  size_t opportunities = 0;
  for (size_t r = 0; r < mix.size(); ++r) {
    while (next_event < schedule.size() &&
           schedule[next_event].at_request <= r) {
      const ChaosEvent& event = schedule[next_event++];
      if (event.shard >= n) continue;
      if (event.action == ChaosEvent::Action::kSlowReads) {
        slowed[event.shard] = 1;
      } else if (event.action == ChaosEvent::Action::kFastReads) {
        slowed[event.shard] = 0;
      }
    }
    if (replicated.count(serving::NormalizeQuery(mix[r])) == 0) continue;
    size_t pick = static_cast<size_t>(round_robin++ % n);
    if (slowed[pick]) ++opportunities;
  }
  return opportunities;
}

std::unordered_map<std::string, uint64_t> BuildPassthroughHashes(
    const pipeline::Testbed* testbed, const serving::ServingConfig& node,
    const std::vector<std::string>& mix) {
  // Without an image there is no reference: every degraded answer then
  // counts as a divergence, so the run fails rather than passes.
  auto empty =
      store::MappedStoreFile::FromStore(store::DiversificationStore());
  if (!empty.ok()) return {};
  serving::ServingNode plain(
      store::StoreSnapshot::FromMapped(std::move(empty).value()), testbed,
      node);
  std::unordered_map<std::string, uint64_t> hashes;
  for (const std::string& query : mix) {
    if (hashes.count(query) > 0) continue;
    hashes[query] =
        RankingHash(plain.Submit(serving::Request(query)).ranking);
  }
  return hashes;
}

ChaosVerdict VerifyChaosRuns(
    const ChaosReport& run_a, const ChaosReport& run_b,
    const ChaosReport& no_fault, const std::vector<std::string>& mix,
    const std::unordered_map<std::string, uint64_t>& passthrough_hashes) {
  ChaosVerdict verdict;
  verdict.dropped = run_a.dropped + run_b.dropped;
  verdict.breaker_opened = run_a.router.breaker_opens > 0;

  // Determinism: same seed, same outcomes, same breaker story.
  size_t n = std::max(run_a.outcomes.size(), run_b.outcomes.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= run_a.outcomes.size() || i >= run_b.outcomes.size() ||
        run_a.outcomes[i] != run_b.outcomes[i]) {
      ++verdict.outcome_mismatches;
    }
  }
  size_t t = std::max(run_a.transitions.size(), run_b.transitions.size());
  for (size_t i = 0; i < t; ++i) {
    if (i >= run_a.transitions.size() || i >= run_b.transitions.size() ||
        !(run_a.transitions[i] == run_b.transitions[i])) {
      ++verdict.transition_mismatches;
    }
  }

  // The faults met the admission path on every shard, in both runs.
  for (const ChaosReport* run : {&run_a, &run_b}) {
    for (uint64_t answers : run->admission_answers) {
      if (answers == 0) ++verdict.shards_without_admission_answers;
    }
  }

  // Correctness against the references, per request.
  for (size_t i = 0; i < run_a.outcomes.size(); ++i) {
    const ChaosRequestOutcome& outcome = run_a.outcomes[i];
    if (!outcome.answered) continue;  // already counted as dropped
    if (!outcome.degraded) {
      // Healthy keys: bit-identical to the no-fault run, wherever the
      // answer came from (owner, replica, or hedge winner).
      if (i >= no_fault.outcomes.size() ||
          outcome.ranking_hash != no_fault.outcomes[i].ranking_hash) {
        ++verdict.healthy_divergences;
      }
    } else {
      // Dead keys: the tagged partial result must be exactly the plain
      // DPH passthrough any shard computes over the shared index.
      auto it = passthrough_hashes.find(mix[i]);
      if (it == passthrough_hashes.end() ||
          outcome.ranking_hash != it->second) {
        ++verdict.degraded_divergences;
      }
    }
  }
  return verdict;
}

namespace {

// Per-run half of VerifyTraceInvariants; accumulates into the verdict.
void CheckRunTraces(const ChaosReport& run, const ChaosConfig& config,
                    size_t* sampled, TraceVerdict* verdict) {
  *sampled = run.traces.size();

  // Each trace must agree with the report's outcome vector at its seq.
  // The hedged flag is excluded, like in ChaosRequestOutcome: which
  // copy wins a hedge race is the one sanctioned non-determinism.
  for (const obs::Trace& trace : run.traces) {
    if (trace.seq >= run.outcomes.size()) {
      ++verdict->outcome_mismatches;
      continue;
    }
    const ChaosRequestOutcome& outcome = run.outcomes[trace.seq];
    if (trace.ok != outcome.answered || trace.degraded != outcome.degraded ||
        trace.diversified != outcome.diversified ||
        trace.ranking_hash != outcome.ranking_hash) {
      ++verdict->outcome_mismatches;
    }
    // Sampling rule: only every N-th request may appear (seq % N == 0).
    uint64_t n = config.trace_sample_every;
    if (n > 1 && trace.seq % n != 0) {
      ++verdict->outcome_mismatches;
    }
  }
}

}  // namespace

TraceVerdict VerifyTraceInvariants(const ChaosReport& run_a,
                                   const ChaosReport& run_b,
                                   const ChaosConfig& config) {
  TraceVerdict verdict;

  // How many requests the sampling rule selects out of the run.
  uint64_t n = config.trace_sample_every;
  size_t requests = run_a.outcomes.size();
  if (n <= 1) {
    verdict.sampled_expected = requests;
  } else {
    verdict.sampled_expected = requests > 0 ? (requests - 1) / n + 1 : 0;
  }

  CheckRunTraces(run_a, config, &verdict.sampled_a, &verdict);
  CheckRunTraces(run_b, config, &verdict.sampled_b, &verdict);

  // Determinism across runs: same sampled seqs, same outcomes per
  // trace. (Stage timings differ — they are wall time — and are not
  // compared.)
  size_t m = std::max(run_a.traces.size(), run_b.traces.size());
  for (size_t i = 0; i < m; ++i) {
    if (i >= run_a.traces.size() || i >= run_b.traces.size()) {
      ++verdict.cross_run_mismatches;
      continue;
    }
    const obs::Trace& a = run_a.traces[i];
    const obs::Trace& b = run_b.traces[i];
    if (a.seq != b.seq || a.query != b.query || a.ok != b.ok ||
        a.degraded != b.degraded || a.diversified != b.diversified ||
        a.ranking_hash != b.ranking_hash) {
      ++verdict.cross_run_mismatches;
    }
  }
  return verdict;
}

}  // namespace cluster
}  // namespace optselect
