// Tests for the sharded serving cluster: ShardFilter / MappedShard
// partitioning, router ownership + hot-key round-robin, bit-identity of
// cluster rankings (shards over views of the store's in-memory v4
// image) against a single node over the whole image (including
// replicas served from non-owner shards), degenerate shard counts (1
// shard == single node, empty shards, all traffic on one shard),
// dirty-only refreshes through one key-filtered StoreRefresher per
// shard (the CLI's wiring), and cluster-level stats aggregation.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/query_router.h"
#include "cluster/sharded_cluster.h"
#include "pipeline/testbed.h"
#include "serving/cache_key.h"
#include "serving/serving_node.h"
#include "serving/store_refresher.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"

namespace optselect {
namespace cluster {
namespace {

// ------------------------------------------------------------ ShardFilter

TEST(ShardFilterTest, OwnerShardIsStableAndInRange) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    for (const char* key : {"apple", "jaguar classic", "x"}) {
      size_t owner = store::ShardFilter::OwnerShard(key, n);
      EXPECT_LT(owner, n);
      EXPECT_EQ(owner, store::ShardFilter::OwnerShard(key, n));
    }
  }
  EXPECT_EQ(store::ShardFilter::OwnerShard("anything", 1), 0u);
}

TEST(ShardFilterTest, KeepsOwnedAndReplicatedKeys) {
  const std::string key = "apple";
  const size_t n = 4;
  size_t owner = store::ShardFilter::OwnerShard(key, n);
  for (size_t i = 0; i < n; ++i) {
    store::ShardFilter filter;
    filter.num_shards = n;
    filter.shard_index = i;
    EXPECT_EQ(filter.Keeps(key), i == owner);
    filter.replicated.insert(key);
    EXPECT_TRUE(filter.Keeps(key));  // replicated ⇒ every shard holds it
  }
}

// ------------------------------------------------------------ the fixture

class ClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    store_ = new store::DiversificationStore();
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    // Default builder options: plans compiled at the default pipeline
    // params, so the cluster tests also cover plans surviving the v4
    // image (plan_served through a shard view).
    store::BuildStore(testbed_->detector(), testbed_->searcher(),
                      testbed_->snippets(), testbed_->analyzer(),
                      testbed_->corpus().store, roots, {}, store_);
    ASSERT_GE(store_->size(), 2u);
    auto image = store::MappedStoreFile::FromStore(*store_);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    mapped_ = std::move(image).value();
    for (const auto& [key, entry] : store_->entries()) {
      stored_keys_->push_back(key);
    }
    std::sort(stored_keys_->begin(), stored_keys_->end());
  }
  static void TearDownTestSuite() {
    mapped_.reset();
    delete store_;
    delete testbed_;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  /// Default pipeline params ⇒ the compiled plans are compatible and
  /// stored queries are plan-served, on shards exactly like on a
  /// single node.
  static ClusterConfig BaseConfig(size_t num_shards) {
    ClusterConfig config;
    config.num_shards = num_shards;
    config.node.num_workers = 1;
    config.node.queue_capacity = 256;
    config.node.max_batch = 4;
    config.node.params.diversify.k = 10;
    return config;
  }

  static serving::ServingNode SingleNode() {
    return serving::ServingNode(store::StoreSnapshot::FromMapped(mapped_),
                                testbed_, BaseConfig(1).node);
  }

  static std::string NoiseQuery() {
    return testbed_->universe().noise_queries[0];
  }

  /// A temp copy of the testbed log: the file every refresher tails.
  static std::string SaveTestbedLog(const std::string& name) {
    std::string path = ::testing::TempDir() + "/" + name;
    EXPECT_TRUE(testbed_->log_result().log.SaveTsv(path).ok());
    return path;
  }

  /// Appends 400 submissions of the least probable specialization of
  /// the stored entry `key`, which shifts that entry's P(q′|q), then
  /// one of the root itself. The root is then dirty on every shard's
  /// refresher, so only the key filter keeps the shards that do not
  /// hold it from inserting it.
  static void AppendBoost(const std::string& path, const std::string& key) {
    const store::StoredEntry& entry = *store_->Find(key);
    const std::string& boosted = entry.specializations.back().query;
    std::ofstream out(path, std::ios::app);
    for (int i = 0; i < 400; ++i) {
      out << boosted << "\t9999\t" << (2000000000 + i) << "\t1,2\t\n";
    }
    out << entry.query << "\t9998\t2000000000\t\t\n";
  }

  /// A refresher over `node` tailing `log_path`, seeded with the log
  /// the store was mined from; `key_filter` null keeps every change.
  static std::unique_ptr<serving::StoreRefresher> MakeRefresher(
      serving::ServingNode* node, const std::string& log_path,
      std::function<bool(const std::string&)> key_filter) {
    serving::StoreRefresherConfig rc;
    rc.log_path = log_path;
    rc.key_filter = std::move(key_filter);
    return std::make_unique<serving::StoreRefresher>(
        node, &testbed_->searcher(), &testbed_->snippets(),
        &testbed_->analyzer(), &testbed_->corpus().store,
        testbed_->log_result().log, rc);
  }

  /// One refresher per shard keyed by the shard's filter, as the CLI's
  /// MakeCluster wires a cluster.
  static std::vector<std::unique_ptr<serving::StoreRefresher>>
  ShardRefreshers(ShardedCluster* cl, const std::string& log_path) {
    std::vector<std::unique_ptr<serving::StoreRefresher>> out;
    for (size_t i = 0; i < cl->num_shards(); ++i) {
      out.push_back(MakeRefresher(
          cl->shard(i), log_path,
          [filter = cl->filter(i)](const std::string& key) {
            return filter.Keeps(key);
          }));
    }
    return out;
  }

  static pipeline::Testbed* testbed_;
  static store::DiversificationStore* store_;
  /// store_'s in-memory v4 image, the cluster's only input shape.
  static std::shared_ptr<const store::MappedStoreFile> mapped_;
  static std::vector<std::string>* stored_keys_;
};

pipeline::Testbed* ClusterTest::testbed_ = nullptr;
store::DiversificationStore* ClusterTest::store_ = nullptr;
std::shared_ptr<const store::MappedStoreFile> ClusterTest::mapped_;
std::vector<std::string>* ClusterTest::stored_keys_ =
    new std::vector<std::string>();

// ------------------------------------------------------------ MappedShard

/// One shard's zero-copy view of the cluster's mapping.
std::shared_ptr<const store::StoreSnapshot> ShardView(
    std::shared_ptr<const store::MappedStoreFile> mapped,
    store::ShardFilter filter) {
  return store::StoreSnapshot::MappedShard(
      std::move(mapped),
      [filter = std::move(filter)](std::string_view key) {
        return filter.Keeps(key);
      });
}

TEST_F(ClusterTest, MappedShardPartitionsExactly) {
  const size_t n = 3;
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    store::ShardFilter filter;
    filter.num_shards = n;
    filter.shard_index = i;
    auto shard = ShardView(mapped_, filter);
    EXPECT_EQ(shard->version(), store_->version());
    total += shard->entry_count();
    for (const std::string& key : *stored_keys_) {
      store::EntryRef entry = shard->Find(key);
      ASSERT_EQ(static_cast<bool>(entry),
                store::ShardFilter::OwnerShard(key, n) == i)
          << key;
      if (!entry) continue;
      // The view serves the shared mapping's own columns: no copy.
      const store::MappedEntry* source = mapped_->FindEntry(key);
      ASSERT_NE(source, nullptr);
      EXPECT_EQ(entry.spec_spans(0), &source->specializations[0].surrogates);
      EXPECT_EQ(entry.num_specializations(),
                store_->Find(key)->specializations.size());
      // Compiled plans are visible through the view.
      EXPECT_EQ(source->has_plan, !store_->Find(key)->plan.empty());
    }
  }
  EXPECT_EQ(total, store_->size());  // disjoint and complete
}

TEST_F(ClusterTest, MappedShardReplicatesListedKeys) {
  const size_t n = 3;
  const std::string& hot = stored_keys_->front();
  size_t holders = 0;
  for (size_t i = 0; i < n; ++i) {
    store::ShardFilter filter;
    filter.num_shards = n;
    filter.shard_index = i;
    filter.replicated.insert(hot);
    if (ShardView(mapped_, filter)->Find(hot)) ++holders;
  }
  EXPECT_EQ(holders, n);
}

// ------------------------------------------------- degenerate shard counts

TEST_F(ClusterTest, SingleShardDegeneratesToSingleNode) {
  ShardedCluster cl(mapped_, testbed_, nullptr, BaseConfig(1));
  serving::ServingNode node = SingleNode();
  ASSERT_EQ(cl.num_shards(), 1u);
  EXPECT_EQ(cl.shard(0)->snapshot()->entry_count(), store_->size());

  std::vector<std::string> queries = *stored_keys_;
  queries.push_back(NoiseQuery());
  for (const std::string& q : queries) {
    serving::Response via_cluster = cl.Submit(serving::Request(q));
    serving::Response via_node = node.Submit(serving::Request(q));
    EXPECT_EQ(via_cluster.ranking, via_node.ranking) << q;
    EXPECT_EQ(via_cluster.diversified, via_node.diversified) << q;
    EXPECT_EQ(via_cluster.plan_served, via_node.plan_served) << q;
    EXPECT_EQ(cl.router().OwnerOf(q), 0u);
  }

  ClusterStats cs = cl.Stats();
  serving::ServingStats ns = node.Stats();
  EXPECT_EQ(cs.num_shards, 1u);
  EXPECT_EQ(cs.total.completed, ns.completed);
  EXPECT_EQ(cs.total.diversified, ns.diversified);
  EXPECT_EQ(cs.total.plan_served, ns.plan_served);
  EXPECT_EQ(cs.total.passthrough, ns.passthrough);
  EXPECT_EQ(cs.router.routed, queries.size());
  EXPECT_EQ(cs.router.per_shard[0], queries.size());
}

TEST_F(ClusterTest, ClusterRankingsBitIdenticalAcrossShardCounts) {
  serving::ServingNode node = SingleNode();
  std::vector<std::string> queries = *stored_keys_;
  queries.push_back(NoiseQuery());

  for (size_t n : {size_t{2}, size_t{3}, size_t{5}}) {
    ShardedCluster cl(mapped_, testbed_, nullptr, BaseConfig(n));
    for (const std::string& q : queries) {
      serving::Response via_cluster = cl.Submit(serving::Request(q));
      serving::Response via_node = node.Submit(serving::Request(q));
      EXPECT_EQ(via_cluster.ranking, via_node.ranking)
          << q << " shards=" << n;
      EXPECT_EQ(via_cluster.diversified, via_node.diversified) << q;
      EXPECT_EQ(via_cluster.plan_served, via_node.plan_served) << q;
    }
  }
}

TEST_F(ClusterTest, EmptyShardStillServesItsTraffic) {
  // Find a shard count under which some shard owns no stored key — it
  // exists well before n reaches the store size ceiling.
  size_t n = 0, empty_shard = 0;
  for (size_t candidate = 2; candidate <= 64 && n == 0; ++candidate) {
    std::vector<bool> owned(candidate, false);
    for (const std::string& key : *stored_keys_) {
      owned[store::ShardFilter::OwnerShard(key, candidate)] = true;
    }
    for (size_t i = 0; i < candidate; ++i) {
      if (!owned[i]) {
        n = candidate;
        empty_shard = i;
        break;
      }
    }
  }
  ASSERT_GT(n, 0u) << "no empty shard up to 64 shards?";

  ShardedCluster cl(mapped_, testbed_, nullptr, BaseConfig(n));
  EXPECT_EQ(cl.shard(empty_shard)->snapshot()->entry_count(), 0u);

  // A query owned by the empty shard must still be answered (it cannot
  // be a stored query, so: passthrough), identically to a single node.
  std::string probe;
  for (const std::string& noise : testbed_->universe().noise_queries) {
    if (cl.router().OwnerOf(noise) == empty_shard) {
      probe = noise;
      break;
    }
  }
  for (int i = 0; probe.empty() && i < 1000; ++i) {
    std::string synthetic = "empty shard probe " + std::to_string(i);
    if (cl.router().OwnerOf(synthetic) == empty_shard) probe = synthetic;
  }
  ASSERT_FALSE(probe.empty());

  serving::Response via_cluster = cl.Submit(serving::Request(probe));
  serving::ServingNode node = SingleNode();
  serving::Response via_node = node.Submit(serving::Request(probe));
  EXPECT_TRUE(via_cluster.ok);
  EXPECT_FALSE(via_cluster.diversified);
  EXPECT_EQ(via_cluster.ranking, via_node.ranking);
  EXPECT_EQ(cl.shard(empty_shard)->Stats().completed, 1u);

  // Stored queries are untouched by the empty shard's existence.
  serving::Response stored = cl.Submit(serving::Request(stored_keys_->front()));
  EXPECT_TRUE(stored.diversified);
  EXPECT_EQ(stored.ranking,
            node.Submit(serving::Request(stored_keys_->front())).ranking);
}

TEST_F(ClusterTest, AllTrafficHashingToOneShardLeavesOthersIdle) {
  const size_t n = 3;
  ShardedCluster cl(mapped_, testbed_, nullptr, BaseConfig(n));
  serving::ServingNode node = SingleNode();

  // The largest same-owner group of stored keys: every request in it
  // lands on one shard; the other shards must stay completely idle.
  std::vector<std::vector<std::string>> by_owner(n);
  for (const std::string& key : *stored_keys_) {
    by_owner[store::ShardFilter::OwnerShard(key, n)].push_back(key);
  }
  size_t hot_shard = 0;
  for (size_t i = 1; i < n; ++i) {
    if (by_owner[i].size() > by_owner[hot_shard].size()) hot_shard = i;
  }
  ASSERT_FALSE(by_owner[hot_shard].empty());

  for (const std::string& q : by_owner[hot_shard]) {
    serving::Response r = cl.Submit(serving::Request(q));
    EXPECT_TRUE(r.diversified) << q;
    EXPECT_EQ(r.ranking, node.Submit(serving::Request(q)).ranking) << q;
  }
  ClusterStats cs = cl.Stats();
  EXPECT_EQ(cs.per_shard[hot_shard].completed,
            by_owner[hot_shard].size());
  for (size_t i = 0; i < n; ++i) {
    if (i != hot_shard) EXPECT_EQ(cs.per_shard[i].completed, 0u);
  }
  EXPECT_EQ(cs.router.per_shard[hot_shard], by_owner[hot_shard].size());
}

// --------------------------------------------------------- hot replication

TEST_F(ClusterTest, ReplicatedQueryServedFromEveryShardBitIdentical) {
  const size_t n = 3;
  ClusterConfig config = BaseConfig(n);
  config.replicate_hot = 2;
  ShardedCluster cl(mapped_, testbed_,
                    &testbed_->recommender().popularity(), config);
  ASSERT_FALSE(cl.replicated_keys().empty());
  serving::ServingNode node = SingleNode();

  for (const std::string& hot : cl.replicated_keys()) {
    EXPECT_TRUE(cl.router().IsReplicated(hot));
    std::vector<DocId> reference = node.Submit(serving::Request(hot)).ranking;
    size_t owner = cl.router().OwnerOf(hot);
    for (size_t i = 0; i < n; ++i) {
      // Every shard — owner or not — holds the replica and serves the
      // identical ranking directly.
      ASSERT_TRUE(cl.shard(i)->snapshot()->Find(hot))
          << hot << " missing on shard " << i;
      serving::Response r = cl.shard(i)->Submit(serving::Request(hot));
      EXPECT_TRUE(r.diversified);
      EXPECT_EQ(r.ranking, reference)
          << hot << " diverged on shard " << i
          << (i == owner ? " (owner)" : " (replica)");
    }
  }

  // The router spreads a replicated key round-robin: n consecutive
  // decisions cover all n shards.
  std::set<size_t> picked;
  for (size_t i = 0; i < n; ++i) {
    picked.insert(cl.router().Route(cl.replicated_keys().front()));
  }
  EXPECT_EQ(picked.size(), n);
  EXPECT_EQ(cl.router().stats().replicated_routed, n);

  // Non-replicated keys still pin to their owner.
  for (const std::string& key : *stored_keys_) {
    if (cl.router().IsReplicated(key)) continue;
    EXPECT_EQ(cl.router().Route(key), cl.router().OwnerOf(key));
  }
}

// ------------------------------------------------------ per-shard refresh

TEST_F(ClusterTest, ShardRefreshersReloadOnlyShardsHoldingAChangedKey) {
  const size_t n = 3;
  const std::string log_path = SaveTestbedLog("cluster_refresh_log.tsv");
  ShardedCluster cl(mapped_, testbed_, nullptr, BaseConfig(n));
  auto refreshers = ShardRefreshers(&cl, log_path);
  // The single-node reference: the same mapping and tail, no filter.
  serving::ServingNode node(store::StoreSnapshot::FromMapped(mapped_),
                            &testbed_->searcher(), &testbed_->snippets(),
                            &testbed_->analyzer(), &testbed_->corpus().store,
                            BaseConfig(1).node);
  auto reference = MakeRefresher(&node, log_path, nullptr);

  // Warm every stored ranking (and the per-shard caches).
  std::vector<std::vector<DocId>> before;
  for (const std::string& key : *stored_keys_) {
    before.push_back(cl.Submit(serving::Request(key)).ranking);
  }

  const std::string& target = stored_keys_->front();
  AppendBoost(log_path, target);
  ASSERT_TRUE(reference->TickOnce().ok());
  ASSERT_EQ(reference->stats().ingested_records, 401u);
  for (auto& refresher : refreshers) ASSERT_TRUE(refresher->TickOnce().ok());

  // The keys the single node's tick changed, new or removed ones too.
  const store::DiversificationStore& after = node.snapshot()->store();
  std::set<std::string> keys(stored_keys_->begin(), stored_keys_->end());
  for (const auto& [key, entry] : after.entries()) keys.insert(key);
  std::set<std::string> changed;
  for (const std::string& key : keys) {
    const store::StoredEntry* old_entry = store_->Find(key);
    const store::StoredEntry* new_entry = after.Find(key);
    if (old_entry == nullptr || new_entry == nullptr ||
        !store::StoredEntriesEqual(*old_entry, *new_entry)) {
      changed.insert(key);
    }
  }
  ASSERT_EQ(changed.count(target), 1u);

  size_t swapped = 0;
  for (size_t i = 0; i < n; ++i) {
    bool holds_changed = false;
    for (const std::string& key : changed) {
      holds_changed |= cl.filter(i).Keeps(key);
    }
    EXPECT_EQ(cl.shard(i)->Stats().reloads, holds_changed ? 1u : 0u) << i;
    swapped += holds_changed ? 1 : 0;
  }
  EXPECT_LT(swapped, n) << "a shard holding no changed key must not swap";

  // Every key serves the single node's ranking; keys the tick did not
  // change keep their cached, bit-identical rankings.
  for (size_t i = 0; i < stored_keys_->size(); ++i) {
    const std::string& key = (*stored_keys_)[i];
    serving::Response r = cl.Submit(serving::Request(key));
    EXPECT_EQ(r.ranking, node.Submit(serving::Request(key)).ranking) << key;
    if (changed.count(key) == 0) {
      EXPECT_EQ(r.ranking, before[i]) << key;
      EXPECT_TRUE(r.cache_hit) << key;
    }
  }
  std::remove(log_path.c_str());
}

TEST_F(ClusterTest, ShardRefreshersUpdateEveryReplicaOfAHotKey) {
  const size_t n = 3;
  ClusterConfig config = BaseConfig(n);
  config.replicate_hot = 1;
  ShardedCluster cl(mapped_, testbed_,
                    &testbed_->recommender().popularity(), config);
  ASSERT_EQ(cl.replicated_keys().size(), 1u);
  const std::string hot = cl.replicated_keys().front();
  const std::string log_path = SaveTestbedLog("cluster_replica_log.tsv");
  auto refreshers = ShardRefreshers(&cl, log_path);

  AppendBoost(log_path, hot);
  for (auto& refresher : refreshers) ASSERT_TRUE(refresher->TickOnce().ok());

  std::vector<DocId> reference;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(cl.shard(i)->Stats().reloads, 1u) << "replica " << i;
    const store::StoredEntry* replica =
        cl.shard(i)->snapshot()->store().Find(hot);
    ASSERT_NE(replica, nullptr);
    EXPECT_FALSE(store::StoredEntriesEqual(*replica, *store_->Find(hot)));
    std::vector<DocId> ranking =
        cl.shard(i)->Submit(serving::Request(hot)).ranking;
    if (i == 0) {
      reference = ranking;
    } else {
      EXPECT_EQ(ranking, reference) << "replicas diverged after refresh";
    }
  }
  std::remove(log_path.c_str());
}

// ------------------------------------------------------ stats aggregation

TEST_F(ClusterTest, StatsAggregateAcrossShards) {
  const size_t n = 3;
  ShardedCluster cl(mapped_, testbed_, nullptr, BaseConfig(n));

  size_t served = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::string& key : *stored_keys_) {
      ASSERT_TRUE(cl.Submit(serving::Request(key)).ok);
      ++served;
    }
    ASSERT_TRUE(cl.Submit(serving::Request(NoiseQuery())).ok);
    ++served;
  }

  ClusterStats cs = cl.Stats();
  EXPECT_EQ(cs.num_shards, n);
  ASSERT_EQ(cs.per_shard.size(), n);
  uint64_t sum_completed = 0, sum_diversified = 0, sum_hits = 0;
  for (const auto& s : cs.per_shard) {
    sum_completed += s.completed;
    sum_diversified += s.diversified;
    sum_hits += s.cache_hits;
  }
  EXPECT_EQ(cs.total.completed, served);
  EXPECT_EQ(cs.total.completed, sum_completed);
  EXPECT_EQ(cs.total.diversified, sum_diversified);
  EXPECT_EQ(cs.total.cache_hits, sum_hits);
  EXPECT_EQ(cs.total.diversified + cs.total.passthrough, served);
  EXPECT_GT(cs.total.cache_hits, 0u);  // second rep hits per-shard caches
  EXPECT_GT(cs.total.qps, 0.0);
  EXPECT_GT(cs.total.p50_ms, 0.0);
  EXPECT_LE(cs.total.p50_ms, cs.total.p95_ms);
  EXPECT_LE(cs.total.p95_ms, cs.total.p99_ms);
  EXPECT_EQ(cs.router.routed, served);
  uint64_t sum_routed = 0;
  for (uint64_t r : cs.router.per_shard) sum_routed += r;
  EXPECT_EQ(sum_routed, served);

  // Candidates other than the plans' make every shard ignore the
  // plans, so stored queries take the streaming cold path.
  ClusterConfig cold = BaseConfig(n);
  cold.node.params.num_candidates = 100;
  ShardedCluster cold_cl(mapped_, testbed_, nullptr, cold);
  for (const std::string& key : *stored_keys_) {
    ASSERT_TRUE(cold_cl.Submit(serving::Request(key)).ok);
  }
  ClusterStats cold_cs = cold_cl.Stats();
  uint64_t sum_streaming = 0;
  for (const auto& s : cold_cs.per_shard) sum_streaming += s.streaming_served;
  EXPECT_EQ(sum_streaming, stored_keys_->size());
  EXPECT_EQ(cold_cs.total.streaming_served, sum_streaming);
  EXPECT_EQ(cold_cs.total.plan_served, 0u);
}

}  // namespace
}  // namespace cluster
}  // namespace optselect
