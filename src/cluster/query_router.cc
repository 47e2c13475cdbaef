#include "cluster/query_router.h"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "serving/cache_key.h"
#include "store/store_builder.h"
#include "util/hash.h"

namespace optselect {
namespace cluster {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

QueryRouter::QueryRouter(std::vector<serving::Frontend*> endpoints,
                         std::unordered_set<std::string> replicated,
                         FailoverConfig failover,
                         obs::MetricsRegistry* registry)
    : endpoints_(std::move(endpoints)),
      replicated_(std::move(replicated)),
      failover_(failover),
      owned_registry_(registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      health_(endpoints_.size()) {
  if (failover_.breaker_threshold == 0) failover_.breaker_threshold = 1;
  if (failover_.breaker_probe_after == 0) failover_.breaker_probe_after = 1;
  RegisterMetrics();
}

void QueryRouter::RegisterMetrics() {
  // Effect-before-cause: stats() and registry Collect() read in this
  // order, so degraded/dropped/retried <= failover_serves and
  // hedges_won <= hedges_launched hold in every snapshot. (The
  // pre-registry stats() read failover_serves first and could observe
  // degraded > failover_serves under concurrent failover traffic.)
  retried_ = registry_->AddCounter("optselect_router_retried_total");
  degraded_ = registry_->AddCounter("optselect_router_degraded_total");
  dropped_ = registry_->AddCounter("optselect_router_dropped_total");
  hedges_won_ = registry_->AddCounter("optselect_router_hedges_won_total");
  hedges_launched_ =
      registry_->AddCounter("optselect_router_hedges_launched_total");
  failover_serves_ =
      registry_->AddCounter("optselect_router_failover_serves_total");
  replicated_routed_ =
      registry_->AddCounter("optselect_router_replicated_routed_total");
  routed_ = registry_->AddCounter("optselect_router_routed_total");
  per_shard_.reserve(endpoints_.size());
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    per_shard_.push_back(registry_->AddCounter(
        "optselect_router_shard_routed_total",
        obs::Labels{{"shard", std::to_string(i)}}));
  }
  // Probe/open tallies live under health_mu_ with the breaker state;
  // exported as foreign-read counters (the lambda takes the lock).
  registry_->AddCounterFn("optselect_router_probes_total", {}, [this] {
    std::lock_guard<std::mutex> lock(health_mu_);
    return probes_;
  });
  registry_->AddCounterFn("optselect_router_breaker_opens_total", {},
                          [this] {
                            std::lock_guard<std::mutex> lock(health_mu_);
                            return breaker_opens_;
                          });
}

size_t QueryRouter::OwnerOf(std::string_view raw_query) const {
  return store::ShardFilter::OwnerShard(serving::NormalizeQuery(raw_query),
                                        endpoints_.size());
}

bool QueryRouter::IsReplicated(std::string_view raw_query) const {
  return replicated_.count(serving::NormalizeQuery(raw_query)) > 0;
}

size_t QueryRouter::Route(std::string_view raw_query) {
  std::string normalized = serving::NormalizeQuery(raw_query);
  size_t shard;
  if (replicated_.count(normalized) > 0) {
    shard = static_cast<size_t>(
        round_robin_.fetch_add(1, std::memory_order_relaxed) %
        endpoints_.size());
    replicated_routed_->Add();
  } else {
    shard = store::ShardFilter::OwnerShard(normalized, endpoints_.size());
  }
  routed_->Add();
  per_shard_[shard]->Add();
  return shard;
}

bool QueryRouter::SubmitAsync(
    serving::Request request, std::function<void(serving::Response)> callback) {
  serving::Frontend* endpoint = endpoints_[Route(request.query)];
  return endpoint->SubmitAsync(std::move(request), std::move(callback));
}

// ------------------------------------------------------- failure domains

void QueryRouter::TransitionLocked(ShardHealth* health, size_t shard,
                                   BreakerState to) {
  BreakerTransition t;
  t.seq = transition_seq_++;
  t.shard = shard;
  t.from = health->state;
  t.to = to;
  if (transitions_.size() >= kMaxBreakerTransitions) {
    transitions_.pop_front();  // bounded log; seq stays global
  }
  transitions_.push_back(t);
  health->state = to;
  if (to == BreakerState::kOpen) ++breaker_opens_;
}

BreakerState QueryRouter::shard_state(size_t shard) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_[shard].state;
}

std::vector<BreakerTransition> QueryRouter::breaker_transitions() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return std::vector<BreakerTransition>(transitions_.begin(),
                                        transitions_.end());
}

bool QueryRouter::AllowAttempt(size_t shard) {
  std::lock_guard<std::mutex> lock(health_mu_);
  ShardHealth& health = health_[shard];
  switch (health.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // A probe is already deciding this shard's fate; further requests
      // ride along (their outcomes feed the breaker too).
      return true;
    case BreakerState::kOpen:
      // Strictly-greater: the probe is admitted on the decision *after*
      // breaker_probe_after skipped ones, as documented — and
      // breaker_probe_after == 1 still skips once (kOpen is never
      // behaviorally identical to kHalfOpen).
      if (++health.skips_while_open > failover_.breaker_probe_after) {
        TransitionLocked(&health, shard, BreakerState::kHalfOpen);
        health.skips_while_open = 0;
        ++probes_;
        return true;
      }
      return false;
  }
  return true;
}

void QueryRouter::RecordOutcome(size_t shard, bool ok) {
  std::lock_guard<std::mutex> lock(health_mu_);
  ShardHealth& health = health_[shard];
  if (ok) {
    // Any successful answer proves the shard serves; close immediately
    // (half-open probe success, or a late hedge straggler).
    health.consecutive_failures = 0;
    if (health.state != BreakerState::kClosed) {
      TransitionLocked(&health, shard, BreakerState::kClosed);
    }
    return;
  }
  ++health.consecutive_failures;
  if (health.state == BreakerState::kHalfOpen) {
    // Failed probe: back to open, restart the skip countdown.
    TransitionLocked(&health, shard, BreakerState::kOpen);
    health.skips_while_open = 0;
  } else if (health.state == BreakerState::kClosed &&
             health.consecutive_failures >= failover_.breaker_threshold) {
    TransitionLocked(&health, shard, BreakerState::kOpen);
    health.skips_while_open = 0;
  }
}

QueryRouter::Attempt QueryRouter::AttemptOn(size_t shard,
                                            const serving::Request& request,
                                            size_t hedge_shard) {
  // Shared between this thread and up to two endpoint callbacks (which
  // run on a node's worker thread, or inline for a remote client and
  // for a node's admission answer);
  // shared_ptr so a hedge straggler that answers after we returned
  // still has somewhere safe to write.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t pending = 0;
    bool have = false;
    size_t winner = kNoShard;
    serving::Response result;
  };
  auto state = std::make_shared<State>();

  // Hedge submissions never feed the breaker (record == false): a
  // hedge fires on wall time, so letting its outcome touch the
  // count-based health state would make breaker transitions — and
  // therefore chaos replays — timing-dependent. Health is judged by
  // first-class attempts only; the hedge is a latency optimization.
  auto submit_to = [&](size_t target, bool record) -> bool {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->pending;
    }
    bool accepted = endpoints_[target]->SubmitAsync(
        request, [this, state, target, record](serving::Response r) {
          // Breaker first, state lock second — RecordOutcome never
          // nests inside state->mu, so lock order is single-level.
          if (record) RecordOutcome(target, r.ok);
          std::lock_guard<std::mutex> lock(state->mu);
          --state->pending;
          if (!state->have && r.ok) {
            state->have = true;
            state->winner = target;
            state->result = std::move(r);
          }
          state->cv.notify_all();
        });
    if (!accepted) {
      // Synchronous rejection: dead shard or full queue — the callback
      // will never fire.
      if (record) RecordOutcome(target, false);
      std::lock_guard<std::mutex> lock(state->mu);
      --state->pending;
    }
    return accepted;
  };

  Attempt attempt;
  if (!submit_to(shard, /*record=*/true)) {
    // Synchronous rejection: no hedge — the caller's failover loop
    // tries the next holder as a first-class attempt instead.
    return attempt;
  }

  std::unique_lock<std::mutex> lock(state->mu);
  if (hedge_shard != kNoShard) {
    bool primary_done =
        state->cv.wait_for(lock, failover_.hedge_delay, [&] {
          return state->have || state->pending == 0;
        });
    if (!primary_done) {
      // Primary is slow: re-issue on the next replica and take
      // whichever answers first (the loser's callback is discarded).
      lock.unlock();
      if (submit_to(hedge_shard, /*record=*/false)) {
        attempt.hedge_used = true;
        hedges_launched_->Add();
      }
      lock.lock();
    }
  }
  state->cv.wait(lock, [&] { return state->have || state->pending == 0; });
  if (!state->have) return attempt;  // every submission failed

  attempt.ok = true;
  attempt.result = std::move(state->result);
  if (attempt.hedge_used && state->winner == hedge_shard) {
    attempt.result.hedged = true;
    hedges_won_->Add();
  }
  return attempt;
}

serving::Response QueryRouter::Submit(const serving::Request& request) {
  failover_serves_->Add();
  const std::string& query = request.query;
  const size_t n = endpoints_.size();
  const std::string normalized = serving::NormalizeQuery(query);
  const bool replicated = replicated_.count(normalized) > 0;
  const size_t owner = store::ShardFilter::OwnerShard(normalized, n);

  // Router-level trace: sampled on the router's own sequence counter
  // (incremented only while a tracer is installed), so under the
  // sequential chaos replay seq equals the request index and the
  // sampled set is identical across runs A and B.
  obs::Trace trace;
  obs::Trace* tr = nullptr;
  obs::Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer != nullptr) {
    uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
    if (tracer->ShouldSample(seq)) {
      trace.seq = seq;
      trace.query = query;
      trace.start = std::chrono::steady_clock::now();
      tr = &trace;
    }
  }
  auto commit = [&](const serving::Response& result) {
    if (tr != nullptr) {
      tr->ok = result.ok;
      tr->degraded = result.degraded;
      tr->hedged = result.hedged;
      tr->diversified = result.diversified;
      tr->cache_hit = result.cache_hit;
      tr->plan_served = result.plan_served;
      tr->total_us = tr->ElapsedMicros();
      tr->ranking_hash = util::Fnv1a64(
          result.ranking.data(), result.ranking.size() * sizeof(DocId));
      tracer->Commit(std::move(*tr));
    }
  };

  // Holders of the key's store entry: the owner alone, or — replicated
  // — every shard, starting at the round-robin cursor so healthy-path
  // traffic keeps spreading exactly like Route().
  std::vector<size_t> holders;
  if (replicated) {
    replicated_routed_->Add();
    size_t start = static_cast<size_t>(
        round_robin_.fetch_add(1, std::memory_order_relaxed) % n);
    holders.reserve(n);
    for (size_t i = 0; i < n; ++i) holders.push_back((start + i) % n);
  } else {
    holders.push_back(owner);
  }

  std::vector<char> attempted(n, 0);
  std::vector<char> is_holder(n, 0);
  for (size_t shard : holders) is_holder[shard] = 1;
  size_t attempts = 0;
  auto finish = [&](serving::Response result,
                    size_t shard) -> serving::Response {
    routed_->Add();
    per_shard_[shard]->Add();
    if (attempts > 1) retried_->Add();
    commit(result);
    return result;
  };

  // Phase 1 — holders, healthy-first, hedged. The hedge target is the
  // next breaker-closed holder (never probes an open shard on spec).
  for (size_t idx = 0; idx < holders.size(); ++idx) {
    size_t shard = holders[idx];
    if (attempted[shard] || !AllowAttempt(shard)) continue;
    size_t hedge = kNoShard;
    if (replicated) {
      for (size_t j = idx + 1; j < holders.size(); ++j) {
        if (!attempted[holders[j]] &&
            shard_state(holders[j]) == BreakerState::kClosed) {
          hedge = holders[j];
          break;
        }
      }
    }
    attempted[shard] = 1;
    ++attempts;
    obs::TraceSpan attempt_span(tr, obs::TraceStage::kAttempt, shard);
    Attempt attempt = AttemptOn(shard, request, hedge);
    attempt_span.End();
    // Hedge launches depend on wall time; the event is narrative only
    // and excluded from every determinism comparison (like the hedged
    // flag in ChaosRequestOutcome).
    if (tr != nullptr && attempt.hedge_used) {
      tr->events.push_back(obs::TraceEvent{
          obs::TraceStage::kHedge, tr->ElapsedMicros(), 0, hedge});
    }
    // A launched hedge already queried its replica — don't re-attempt
    // it (its outcome deliberately never touched the breaker).
    if (attempt.hedge_used) attempted[hedge] = 1;
    if (attempt.ok) {
      size_t winner = attempt.result.hedged ? hedge : shard;
      return finish(std::move(attempt.result), winner);
    }
  }

  // Phase 2 — every holder is down or gated: fall back to any shard
  // that answers. A non-holder lacks the entry but shares the immutable
  // retrieval stack, so it serves the plain DPH top-k — a correct,
  // non-diversified ranking, tagged `degraded` so the caller can tell.
  // The sweep can also reach a breaker-gated *holder* (its probe turn,
  // or the last-resort pass): a holder's answer is full quality and is
  // never tagged. Healthy shards first; phase 3 ignores open breakers
  // rather than drop (a success also closes the breaker early).
  for (int respect_breaker = 1; respect_breaker >= 0; --respect_breaker) {
    for (size_t i = 0; i < n; ++i) {
      size_t shard = (owner + 1 + i) % n;
      if (attempted[shard]) continue;
      if (respect_breaker && !AllowAttempt(shard)) continue;
      attempted[shard] = 1;
      ++attempts;
      obs::TraceSpan failover_span(tr, obs::TraceStage::kFailover, shard);
      Attempt attempt = AttemptOn(shard, request, kNoShard);
      failover_span.End();
      if (attempt.ok) {
        if (!is_holder[shard]) {
          attempt.result.degraded = true;
          degraded_->Add();
        }
        return finish(std::move(attempt.result), shard);
      }
    }
  }

  // Nothing in the cluster answered.
  dropped_->Add();
  routed_->Add();
  serving::Response failed;  // ok == false
  commit(failed);
  return failed;
}

RouterStats QueryRouter::stats() const {
  RouterStats s;
  // Thin view over the registry handles, read in registration
  // (effect-before-cause) order: retried/degraded/dropped before
  // failover_serves, hedges_won before hedges_launched — the
  // corresponding <= invariants hold in every snapshot.
  s.retried = retried_->value();
  s.degraded = degraded_->value();
  s.dropped = dropped_->value();
  s.hedges_won = hedges_won_->value();
  s.hedges_launched = hedges_launched_->value();
  s.failover_serves = failover_serves_->value();
  s.replicated_routed = replicated_routed_->value();
  s.routed = routed_->value();
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    s.probes = probes_;
    s.breaker_opens = breaker_opens_;
  }
  s.per_shard.reserve(per_shard_.size());
  for (const obs::Counter* counter : per_shard_) {
    s.per_shard.push_back(counter->value());
  }
  return s;
}

}  // namespace cluster
}  // namespace optselect
