// Tests for the failure-domain layer: fault-injector hooks at the
// admission / store-read / reload boundaries, the router's per-shard
// circuit breaker (open on consecutive failures, count-based half-open
// probing, close on success), replica failover and hedged retries for
// replicated keys, the degraded passthrough fallback for dead owners,
// and a miniature deterministic chaos scenario.
//
// Tests that only need a *dead* shard use ServingNode::Shutdown; tests
// that need transient faults, latency, or revival install a
// ScriptedFaultInjector (the hooks are compiled into every build).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/chaos.h"
#include "cluster/query_router.h"
#include "cluster/sharded_cluster.h"
#include "pipeline/testbed.h"
#include "serving/fault_injector.h"
#include "serving/serving_node.h"
#include "serving/store_refresher.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"

namespace optselect {
namespace cluster {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    store_ = new store::DiversificationStore();
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    store::BuildStore(testbed_->detector(), testbed_->searcher(),
                      testbed_->snippets(), testbed_->analyzer(),
                      testbed_->corpus().store, roots, {}, store_);
    ASSERT_GE(store_->size(), 2u);
    auto image = store::MappedStoreFile::FromStore(*store_);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    mapped_ = std::move(image).value();
    snapshot_ = store::StoreSnapshot::FromMapped(mapped_);
    for (const auto& [key, entry] : store_->entries()) {
      stored_keys_->push_back(key);
    }
    std::sort(stored_keys_->begin(), stored_keys_->end());
  }
  static void TearDownTestSuite() {
    snapshot_.reset();
    mapped_.reset();
    delete store_;
    delete testbed_;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  static ClusterConfig BaseConfig(size_t num_shards) {
    ClusterConfig config;
    config.num_shards = num_shards;
    config.node.num_workers = 1;
    config.node.queue_capacity = 256;
    config.node.max_batch = 4;
    config.node.params.diversify.k = 10;
    return config;
  }

  /// The plain DPH ranking any shard computes without a store entry —
  /// what a degraded answer must be bit-identical to.
  static std::vector<DocId> PassthroughRanking(const std::string& query) {
    auto empty =
        store::MappedStoreFile::FromStore(store::DiversificationStore());
    EXPECT_TRUE(empty.ok()) << empty.status().ToString();
    serving::ServingNode plain(
        store::StoreSnapshot::FromMapped(std::move(empty).value()), testbed_,
        BaseConfig(1).node);
    return plain.Submit(serving::Request(query)).ranking;
  }

  static pipeline::Testbed* testbed_;
  static store::DiversificationStore* store_;
  /// store_'s in-memory v4 image, what every cluster here serves.
  static std::shared_ptr<const store::MappedStoreFile> mapped_;
  /// The whole image, what every single node here starts on.
  static std::shared_ptr<const store::StoreSnapshot> snapshot_;
  static std::vector<std::string>* stored_keys_;
};

pipeline::Testbed* FaultInjectionTest::testbed_ = nullptr;
store::DiversificationStore* FaultInjectionTest::store_ = nullptr;
std::shared_ptr<const store::MappedStoreFile> FaultInjectionTest::mapped_;
std::shared_ptr<const store::StoreSnapshot> FaultInjectionTest::snapshot_;
std::vector<std::string>* FaultInjectionTest::stored_keys_ =
    new std::vector<std::string>();

// --------------------------------------------------------- plumbing bits

TEST(BreakerStateNameTest, NamesAllStates) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half-open");
}

// ------------------------------------------------- healthy-path identity

TEST_F(FaultInjectionTest, FailoverPathIsBitIdenticalWhenHealthy) {
  ShardedCluster cl(mapped_, testbed_, nullptr, BaseConfig(3));
  serving::ServingNode single(snapshot_, testbed_, BaseConfig(1).node);

  std::vector<std::string> queries = *stored_keys_;
  queries.push_back(testbed_->universe().noise_queries[0]);
  for (const std::string& q : queries) {
    serving::Response via_failover = cl.Submit(serving::Request(q));
    serving::Response via_node = single.Submit(serving::Request(q));
    ASSERT_TRUE(via_failover.ok) << q;
    EXPECT_FALSE(via_failover.degraded) << q;
    EXPECT_EQ(via_failover.ranking, via_node.ranking) << q;
    EXPECT_EQ(via_failover.diversified, via_node.diversified) << q;
  }
  RouterStats rs = cl.router().stats();
  EXPECT_EQ(rs.failover_serves, queries.size());
  EXPECT_EQ(rs.retried, 0u);
  EXPECT_EQ(rs.degraded, 0u);
  EXPECT_EQ(rs.dropped, 0u);
  EXPECT_TRUE(cl.router().breaker_transitions().empty());
}

// --------------------------------- dead owner: degrade + breaker cycle

TEST_F(FaultInjectionTest, DeadOwnerDegradesAndBreakerOpensThenProbes) {
  const size_t n = 3;
  ClusterConfig config = BaseConfig(n);
  config.failover.breaker_threshold = 3;
  config.failover.breaker_probe_after = 4;
  ShardedCluster cl(mapped_, testbed_, nullptr, config);

  // Prefer a victim whose diversified ranking visibly differs from the
  // plain DPH order, so "degraded" is observable in the bytes too.
  std::string victim_key = stored_keys_->front();
  for (const std::string& key : *stored_keys_) {
    if (cl.Submit(serving::Request(key)).ranking != PassthroughRanking(key)) {
      victim_key = key;
      break;
    }
  }
  const size_t owner = cl.router().OwnerOf(victim_key);
  std::vector<DocId> passthrough = PassthroughRanking(victim_key);

  cl.shard(owner)->Shutdown();  // the shard is gone, not slow

  // threshold failed attempts open the breaker; every request is still
  // answered, degraded to the passthrough ranking.
  for (int i = 0; i < 3; ++i) {
    serving::Response r = cl.Submit(serving::Request(victim_key));
    ASSERT_TRUE(r.ok) << i;
    EXPECT_TRUE(r.degraded) << i;
    EXPECT_FALSE(r.diversified) << i;
    EXPECT_EQ(r.ranking, passthrough) << i;
  }
  EXPECT_EQ(cl.router().shard_state(owner), BreakerState::kOpen);

  // While open, requests skip the dead shard without attempting it;
  // after probe_after skips one probe goes through, fails, and the
  // breaker reopens. 4 skips + probe = 5 more requests.
  for (int i = 0; i < 5; ++i) {
    serving::Response r = cl.Submit(serving::Request(victim_key));
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.ranking, passthrough);
  }
  std::vector<BreakerTransition> log = cl.router().breaker_transitions();
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log[0].shard, owner);
  EXPECT_EQ(log[0].from, BreakerState::kClosed);
  EXPECT_EQ(log[0].to, BreakerState::kOpen);
  EXPECT_EQ(log[1].to, BreakerState::kHalfOpen);  // the probe admission
  EXPECT_EQ(log[2].to, BreakerState::kOpen);      // the probe failed
  RouterStats rs = cl.router().stats();
  EXPECT_GE(rs.probes, 1u);
  EXPECT_GE(rs.breaker_opens, 2u);
  EXPECT_EQ(rs.dropped, 0u);
  EXPECT_EQ(rs.degraded, 8u);

  // Keys owned by live shards are untouched — same diversified ranking.
  for (const std::string& key : *stored_keys_) {
    if (cl.router().OwnerOf(key) == owner) continue;
    serving::Response r = cl.Submit(serving::Request(key));
    ASSERT_TRUE(r.ok) << key;
    EXPECT_FALSE(r.degraded) << key;
    EXPECT_TRUE(r.diversified) << key;
  }
}

// ------------------------------------- replicated keys: replica failover

TEST_F(FaultInjectionTest, ReplicatedKeyFailsOverToReplicasBitIdentical) {
  const size_t n = 3;
  ClusterConfig config = BaseConfig(n);
  config.replicate_hot = 1;
  ShardedCluster cl(mapped_, testbed_,
                    &testbed_->recommender().popularity(), config);
  ASSERT_EQ(cl.replicated_keys().size(), 1u);
  const std::string hot = cl.replicated_keys().front();

  serving::ServingNode single(snapshot_, testbed_, BaseConfig(1).node);
  const std::vector<DocId> reference =
      single.Submit(serving::Request(hot)).ranking;

  cl.shard(1)->Shutdown();
  // Every request is answered from a live replica: full quality, no
  // degradation, bit-identical, regardless of where round-robin lands.
  for (size_t i = 0; i < 2 * n + 1; ++i) {
    serving::Response r = cl.Submit(serving::Request(hot));
    ASSERT_TRUE(r.ok) << i;
    EXPECT_FALSE(r.degraded) << i;
    EXPECT_TRUE(r.diversified) << i;
    EXPECT_EQ(r.ranking, reference) << i;
  }
  EXPECT_EQ(cl.router().stats().dropped, 0u);
  EXPECT_EQ(cl.router().stats().degraded, 0u);
}

// ---------------------------------------------------- injected faults

TEST_F(FaultInjectionTest, DeadInjectorShedsSyncAndAsyncSubmits) {
  serving::ServingNode node(snapshot_, testbed_, BaseConfig(1).node);
  serving::ScriptedFaultInjector injector;
  node.set_fault_injector(&injector);

  injector.SetDead(true);
  EXPECT_FALSE(node.SubmitAsync(serving::Request(stored_keys_->front()),
                                [](serving::Response) { FAIL(); }));
  EXPECT_FALSE(node.Submit(serving::Request(stored_keys_->front())).ok);
  EXPECT_EQ(node.Stats().rejected, 2u);
  EXPECT_EQ(injector.counts().submit_faults, 2u);

  injector.SetDead(false);
  EXPECT_TRUE(node.Submit(serving::Request(stored_keys_->front())).ok);
  node.set_fault_injector(nullptr);
}

TEST_F(FaultInjectionTest, StoreReadBurstFailsExactlyNThenRecovers) {
  serving::ServingConfig config = BaseConfig(1).node;
  config.enable_cache = false;  // every request actually reads
  serving::ServingNode node(snapshot_, testbed_, config);
  serving::ScriptedFaultInjector injector;
  node.set_fault_injector(&injector);

  injector.FailNextStoreReads(2);
  EXPECT_FALSE(node.Submit(serving::Request(stored_keys_->front())).ok);
  EXPECT_FALSE(node.Submit(serving::Request(stored_keys_->front())).ok);
  serving::Response recovered =
      node.Submit(serving::Request(stored_keys_->front()));
  EXPECT_TRUE(recovered.ok);
  EXPECT_TRUE(recovered.diversified);

  serving::ServingStats stats = node.Stats();
  EXPECT_EQ(stats.faulted, 2u);
  EXPECT_EQ(stats.completed, 3u);  // faulted requests still answer
  EXPECT_EQ(injector.counts().store_read_faults, 2u);
  node.set_fault_injector(nullptr);
}

TEST_F(FaultInjectionTest, ReloadFaultRefusesSwapAndKeepsServing) {
  serving::ServingNode node(snapshot_, testbed_, BaseConfig(1).node);
  serving::ScriptedFaultInjector injector;
  node.set_fault_injector(&injector);
  const uint64_t version_before = node.snapshot()->version();

  // A real content change, built the way a refresher would.
  store::StoreDelta delta;
  store::StoredEntry perturbed = *store_->Find(stored_keys_->front());
  perturbed.specializations[0].probability *= 0.5;
  double norm = 0;
  for (const auto& sp : perturbed.specializations) norm += sp.probability;
  for (auto& sp : perturbed.specializations) sp.probability /= norm;
  delta.upserts.push_back(perturbed);
  store::SnapshotBuildResult built =
      store::BuildSnapshot(node.snapshot().get(), delta);
  ASSERT_FALSE(built.changed_keys.empty());

  injector.SetFailReloads(true);
  serving::ServingNode::ReloadOutcome refused =
      node.ReloadStore(built.snapshot, built.changed_keys);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(node.snapshot()->version(), version_before);
  EXPECT_EQ(node.Stats().reload_failures, 1u);
  EXPECT_EQ(node.Stats().reloads, 0u);
  EXPECT_TRUE(node.Submit(serving::Request(stored_keys_->front())).ok);

  injector.SetFailReloads(false);
  serving::ServingNode::ReloadOutcome applied =
      node.ReloadStore(built.snapshot, built.changed_keys);
  EXPECT_TRUE(applied.ok);
  EXPECT_EQ(node.snapshot()->version(), built.snapshot->version());
  node.set_fault_injector(nullptr);
}

TEST_F(FaultInjectionTest, TransientFaultsOpenBreakerThenRecoveryCloses) {
  const size_t n = 2;
  ClusterConfig config = BaseConfig(n);
  config.failover.breaker_threshold = 2;
  config.failover.breaker_probe_after = 3;
  ShardedCluster cl(mapped_, testbed_, nullptr, config);

  const std::string& key = stored_keys_->front();
  const size_t owner = cl.router().OwnerOf(key);
  serving::ScriptedFaultInjector injector;
  cl.shard(owner)->set_fault_injector(&injector);
  std::vector<DocId> healthy = cl.Submit(serving::Request(key)).ranking;

  // Two store-read failures trip the breaker; both requests degrade.
  injector.FailNextStoreReads(2);
  for (int i = 0; i < 2; ++i) {
    serving::Response r = cl.Submit(serving::Request(key));
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.degraded);
  }
  EXPECT_EQ(cl.router().shard_state(owner), BreakerState::kOpen);

  // The burst is spent — the shard is healthy again. After probe_after
  // (= 3) skipped decisions the next one is the probe: it goes
  // through, succeeds, and closes the breaker; from then on the key
  // serves at full quality again.
  for (int i = 0; i < 4; ++i) {
    serving::Response r = cl.Submit(serving::Request(key));
    ASSERT_TRUE(r.ok);  // degraded while skipping, probe serves normally
  }
  EXPECT_EQ(cl.router().shard_state(owner), BreakerState::kClosed);
  serving::Response recovered = cl.Submit(serving::Request(key));
  ASSERT_TRUE(recovered.ok);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.ranking, healthy);

  std::vector<BreakerTransition> log = cl.router().breaker_transitions();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].to, BreakerState::kOpen);
  EXPECT_EQ(log[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(log[2].to, BreakerState::kClosed);
  cl.shard(owner)->set_fault_injector(nullptr);
}

TEST_F(FaultInjectionTest, OwnerReachedInFallbackSweepIsNotTaggedDegraded) {
  // The fallback sweep may reach the key's *owner* (its probe turn, or
  // the breaker-ignoring last resort). A holder's answer is full
  // quality — it must never come back tagged degraded.
  ClusterConfig config = BaseConfig(2);
  config.failover.breaker_threshold = 2;
  config.failover.breaker_probe_after = 8;
  ShardedCluster cl(mapped_, testbed_, nullptr, config);

  const std::string& key = stored_keys_->front();
  const size_t owner = cl.router().OwnerOf(key);
  const size_t other = 1 - owner;
  std::vector<DocId> healthy = cl.Submit(serving::Request(key)).ranking;

  serving::ScriptedFaultInjector injector;
  cl.shard(owner)->set_fault_injector(&injector);
  injector.FailNextStoreReads(2);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(cl.Submit(serving::Request(key)).ok);
  }
  ASSERT_EQ(cl.router().shard_state(owner), BreakerState::kOpen);

  // The owner has recovered (burst spent) but its breaker is still
  // open, and the only other shard is now dead: the last-resort sweep
  // lands back on the owner, which answers at full quality.
  cl.shard(other)->Shutdown();
  serving::Response r = cl.Submit(serving::Request(key));
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.degraded) << "a holder's answer is never degraded";
  EXPECT_TRUE(r.diversified);
  EXPECT_EQ(r.ranking, healthy);
  EXPECT_EQ(cl.router().shard_state(owner), BreakerState::kClosed)
      << "the successful answer closes the breaker";
  cl.shard(owner)->set_fault_injector(nullptr);
}

TEST_F(FaultInjectionTest, ShardRefresherRetriesRefusedReloadFromPending) {
  // One refresher per shard keyed by the shard's filter, as the CLI
  // wires a cluster. A shard whose reload is refused keeps its built
  // snapshot pending while the other replicas swap; its next tick, with
  // no new records, swaps it in and the replicas agree again.
  const size_t n = 3;
  ClusterConfig config = BaseConfig(n);
  config.replicate_hot = 1;
  ShardedCluster cl(mapped_, testbed_,
                    &testbed_->recommender().popularity(), config);
  ASSERT_EQ(cl.replicated_keys().size(), 1u);
  const std::string hot = cl.replicated_keys().front();

  std::string log_path = ::testing::TempDir() + "/fault_shard_log.tsv";
  ASSERT_TRUE(testbed_->log_result().log.SaveTsv(log_path).ok());
  std::vector<std::unique_ptr<serving::StoreRefresher>> refreshers;
  for (size_t i = 0; i < n; ++i) {
    serving::StoreRefresherConfig rc;
    rc.log_path = log_path;
    rc.key_filter = [filter = cl.filter(i)](const std::string& key) {
      return filter.Keeps(key);
    };
    refreshers.push_back(std::make_unique<serving::StoreRefresher>(
        cl.shard(i), &testbed_->searcher(), &testbed_->snippets(),
        &testbed_->analyzer(), &testbed_->corpus().store,
        testbed_->log_result().log, rc));
  }
  {
    // Fresh traffic that shifts the hot entry's distribution.
    const std::string boosted =
        store_->Find(hot)->specializations.back().query;
    std::ofstream out(log_path, std::ios::app);
    for (int i = 0; i < 400; ++i) {
      out << boosted << "\t9999\t" << (2000000000 + i) << "\t1,2\t\n";
    }
  }

  serving::ScriptedFaultInjector injector;
  cl.shard(0)->set_fault_injector(&injector);
  injector.SetFailReloads(true);
  EXPECT_FALSE(refreshers[0]->TickOnce().ok()) << "refused swap is an error";
  for (size_t i = 1; i < n; ++i) EXPECT_TRUE(refreshers[i]->TickOnce().ok());
  EXPECT_EQ(cl.shard(0)->Stats().reloads, 0u);
  EXPECT_EQ(cl.shard(0)->Stats().reload_failures, 1u);
  for (size_t i = 1; i < n; ++i) {
    EXPECT_EQ(cl.shard(i)->Stats().reloads, 1u) << i;
  }

  // No new records: only the refused shard has anything to swap.
  injector.SetFailReloads(false);
  for (auto& refresher : refreshers) EXPECT_TRUE(refresher->TickOnce().ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(cl.shard(i)->Stats().reloads, 1u) << i;
  }

  // Replicas converged: every shard serves the identical new ranking.
  std::vector<DocId> reference =
      cl.shard(0)->Submit(serving::Request(hot)).ranking;
  for (size_t i = 1; i < n; ++i) {
    EXPECT_EQ(cl.shard(i)->Submit(serving::Request(hot)).ranking, reference)
        << i;
  }
  cl.shard(0)->set_fault_injector(nullptr);
  std::remove(log_path.c_str());
}

TEST_F(FaultInjectionTest, RefresherRetriesPendingSwapAfterReloadFault) {
  // A refused ReloadStore must defer the mined update, not lose it:
  // the refresher keeps the built snapshot pending and the next tick
  // swaps it in — even with no fresh log traffic.
  std::string log_path = ::testing::TempDir() + "/fault_refresher_log.tsv";
  ASSERT_TRUE(testbed_->log_result().log.SaveTsv(log_path).ok());

  serving::ServingNode node(snapshot_, testbed_, BaseConfig(1).node);
  serving::ScriptedFaultInjector injector;
  node.set_fault_injector(&injector);
  serving::StoreRefresherConfig rc;
  rc.log_path = log_path;
  serving::StoreRefresher refresher(
      &node, &testbed_->searcher(), &testbed_->snippets(),
      &testbed_->analyzer(), &testbed_->corpus().store,
      testbed_->log_result().log, rc);

  // Fresh traffic that shifts one stored entry's distribution.
  const store::StoredEntry* target = store_->Find(stored_keys_->front());
  ASSERT_NE(target, nullptr);
  const std::string boosted = target->specializations.back().query;
  {
    std::ofstream out(log_path, std::ios::app);
    for (int i = 0; i < 400; ++i) {
      out << boosted << "\t9999\t" << (2000000000 + i) << "\t1,2\t\n";
    }
  }

  injector.SetFailReloads(true);
  EXPECT_FALSE(refresher.TickOnce().ok()) << "refused swap is an error";
  EXPECT_EQ(refresher.stats().swaps, 0u);
  EXPECT_EQ(refresher.stats().errors, 1u);
  EXPECT_EQ(node.Stats().reloads, 0u);
  EXPECT_EQ(node.Stats().reload_failures, 1u);
  EXPECT_EQ(node.Stats().store_version, 0u);

  // No new records — the retry alone must land the pending snapshot.
  injector.SetFailReloads(false);
  EXPECT_TRUE(refresher.TickOnce().ok());
  serving::StoreRefresherStats rs = refresher.stats();
  EXPECT_EQ(rs.swaps, 1u);
  EXPECT_GE(rs.upserts, 1u);
  EXPECT_EQ(node.Stats().reloads, 1u);
  EXPECT_EQ(node.Stats().store_version, rs.store_version);
  EXPECT_GE(node.Stats().store_version, 1u);
  std::remove(log_path.c_str());
  node.set_fault_injector(nullptr);
}

TEST_F(FaultInjectionTest, HedgedRetryWinsOnSlowReplica) {
  const size_t n = 3;
  ClusterConfig config = BaseConfig(n);
  config.replicate_hot = 1;
  config.failover.hedge_delay = std::chrono::microseconds(2000);
  ShardedCluster cl(mapped_, testbed_,
                    &testbed_->recommender().popularity(), config);
  ASSERT_EQ(cl.replicated_keys().size(), 1u);
  const std::string hot = cl.replicated_keys().front();
  serving::ServingNode single(snapshot_, testbed_, BaseConfig(1).node);
  const std::vector<DocId> reference =
      single.Submit(serving::Request(hot)).ranking;

  // A fresh router's round-robin cursor starts at shard 0: make that
  // first pick pathologically slow (well past the hedge delay) and the
  // hedge must answer from the next replica, bit-identically.
  serving::ScriptedFaultInjector injector;
  cl.shard(0)->set_fault_injector(&injector);
  injector.SetStoreReadDelay(std::chrono::milliseconds(200));

  serving::Response r = cl.Submit(serving::Request(hot));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.hedged);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.ranking, reference);
  RouterStats rs = cl.router().stats();
  EXPECT_EQ(rs.hedges_launched, 1u);
  EXPECT_EQ(rs.hedges_won, 1u);
  EXPECT_TRUE(cl.router().breaker_transitions().empty())
      << "slow is not dead: no breaker activity";
  injector.SetStoreReadDelay(std::chrono::microseconds(0));
  cl.shard(0)->set_fault_injector(nullptr);
}

// ------------------------------------------------ miniature chaos run

TEST_F(FaultInjectionTest, MiniChaosScenarioIsDeterministicAndLossless) {
  ChaosConfig chaos;
  chaos.requests = 240;
  chaos.seed = 4242;
  chaos.num_shards = 2;
  chaos.replicate_hot = 1;
  chaos.node = BaseConfig(1).node;
  chaos.slow_read_delay = std::chrono::microseconds(8000);
  chaos.schedule = DefaultChaosSchedule(chaos.requests, chaos.num_shards);
  ASSERT_FALSE(chaos.schedule.empty());

  const querylog::PopularityMap& popularity =
      testbed_->recommender().popularity();
  std::vector<std::string> mix = BuildChaosMix(popularity, chaos);
  ASSERT_EQ(mix.size(), chaos.requests);
  EXPECT_EQ(mix, BuildChaosMix(popularity, chaos)) << "mix must reseed";

  std::unordered_map<std::string, uint64_t> passthrough =
      BuildPassthroughHashes(testbed_, chaos.node, mix);

  ChaosConfig calm = chaos;
  calm.schedule.clear();
  ChaosReport no_fault =
      RunChaosScenario(mapped_, testbed_, &popularity, mix, calm);
  ChaosReport run_a =
      RunChaosScenario(mapped_, testbed_, &popularity, mix, chaos);
  ChaosReport run_b =
      RunChaosScenario(mapped_, testbed_, &popularity, mix, chaos);

  EXPECT_TRUE(no_fault.transitions.empty());
  EXPECT_EQ(no_fault.degraded, 0u);

  ChaosVerdict verdict =
      VerifyChaosRuns(run_a, run_b, no_fault, mix, passthrough);
  EXPECT_EQ(verdict.dropped, 0u);
  EXPECT_EQ(verdict.outcome_mismatches, 0u);
  EXPECT_EQ(verdict.transition_mismatches, 0u);
  EXPECT_EQ(verdict.healthy_divergences, 0u);
  EXPECT_EQ(verdict.degraded_divergences, 0u);
  EXPECT_TRUE(verdict.breaker_opened);
  EXPECT_TRUE(verdict.ok());
  EXPECT_GT(run_a.degraded, 0u) << "the kill window must bite";

  // The router's sampled traces retell the same story in every build.
  TraceVerdict traces = VerifyTraceInvariants(run_a, run_b, chaos);
  EXPECT_GT(traces.sampled_expected, 0u);
  EXPECT_EQ(traces.sampled_a, traces.sampled_expected);
  EXPECT_EQ(traces.sampled_b, traces.sampled_expected);
  EXPECT_EQ(traces.outcome_mismatches, 0u);
  EXPECT_EQ(traces.breaker_mismatches, 0u);
  EXPECT_EQ(traces.cross_run_mismatches, 0u);
}

}  // namespace
}  // namespace cluster
}  // namespace optselect
