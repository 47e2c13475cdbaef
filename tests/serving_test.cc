// Tests for the query-serving subsystem: cache keys, the sharded LRU
// cache, the streaming latency histogram, the bounded request queue, and
// the ServingNode end-to-end (cache/batching bit-identity, shutdown with
// in-flight requests, stats consistency under concurrent load).

#include <atomic>
#include <cctype>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/testbed.h"
#include "serving/cache_key.h"
#include "serving/latency_histogram.h"
#include "serving/replay.h"
#include "serving/request_queue.h"
#include "serving/result_cache.h"
#include "serving/serving_node.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"

namespace optselect {
namespace serving {
namespace {

// ------------------------------------------------------------- cache key

TEST(CacheKeyTest, NormalizeQueryCanonicalizes) {
  EXPECT_EQ(NormalizeQuery("  Apple  IPhone "), "apple iphone");
  EXPECT_EQ(NormalizeQuery("apple iphone"), "apple iphone");
  EXPECT_EQ(NormalizeQuery("\tA\n b\t"), "a b");
  EXPECT_EQ(NormalizeQuery("   "), "");
  EXPECT_EQ(NormalizeQuery(""), "");
}

TEST(CacheKeyTest, FingerprintSeparatesParams) {
  pipeline::PipelineParams a;
  pipeline::PipelineParams b = a;
  EXPECT_EQ(ParamsFingerprint(a), ParamsFingerprint(b));
  b.diversify.k = a.diversify.k + 1;
  EXPECT_NE(ParamsFingerprint(a), ParamsFingerprint(b));
  b = a;
  b.diversify.lambda += 0.01;
  EXPECT_NE(ParamsFingerprint(a), ParamsFingerprint(b));
  b = a;
  b.threshold_c += 0.1;
  EXPECT_NE(ParamsFingerprint(a), ParamsFingerprint(b));

  EXPECT_NE(MakeCacheKey("q", ParamsFingerprint(a)),
            MakeCacheKey("q", ParamsFingerprint(b)));
  EXPECT_EQ(MakeCacheKey("q", ParamsFingerprint(a)),
            MakeCacheKey("q", ParamsFingerprint(a)));
}

// ------------------------------------------------------------- LRU cache

TEST(ResultCacheTest, HitMissAndCounters) {
  ShardedLruCache<int> cache(ResultCacheOptions{4, 1});
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", std::make_shared<int>(1));
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  ResultCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_DOUBLE_EQ(st.HitRate(), 0.5);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard of capacity 2 so eviction order is fully deterministic.
  ShardedLruCache<int> cache(ResultCacheOptions{2, 1});
  cache.Put("a", std::make_shared<int>(1));
  cache.Put("b", std::make_shared<int>(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh "a" ⇒ "b" is now LRU
  cache.Put("c", std::make_shared<int>(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);  // evicted
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, PutReplacesAndEvictedValueStaysAlive) {
  ShardedLruCache<int> cache(ResultCacheOptions{1, 1});
  cache.Put("a", std::make_shared<int>(1));
  auto held = cache.Get("a");
  cache.Put("b", std::make_shared<int>(2));  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(*held, 1);  // the handed-out pointer is still valid
  cache.Put("b", std::make_shared<int>(3));  // replace, no eviction
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(*cache.Get("b"), 3);
}

// ------------------------------------------------------------- histogram

TEST(LatencyHistogramTest, PercentilesOnKnownDistribution) {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.MeanMicros(), 500.5, 0.01);
  // Log-linear bucketing bounds relative error at ~2%.
  EXPECT_NEAR(h.PercentileMicros(0.50), 500.0, 500.0 * 0.03);
  EXPECT_NEAR(h.PercentileMicros(0.95), 950.0, 950.0 * 0.03);
  EXPECT_NEAR(h.PercentileMicros(0.99), 990.0, 990.0 * 0.03);
  EXPECT_EQ(LatencyHistogram().PercentileMicros(0.5), 0.0);
}

TEST(LatencyHistogramTest, SmallValuesExactAndNegativeClamped) {
  LatencyHistogram h;
  h.Record(-5);
  h.Record(0);
  h.Record(7);
  h.Record(7);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(1.0), 7.0);  // exact: 7 < 64
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.25), 0.0);
}

// ----------------------------------------------------------------- queue

TEST(RequestQueueTest, TryPushRespectsCapacityAndPopBatchDrains) {
  BoundedRequestQueue<int> q(3);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_FALSE(q.TryPush(4));  // full
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 2), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  q.Close();
  EXPECT_FALSE(q.TryPush(5));            // closed
  EXPECT_EQ(q.PopBatch(&batch, 8), 1u);  // drains the remaining item
  EXPECT_EQ(batch, (std::vector<int>{3}));
  EXPECT_EQ(q.PopBatch(&batch, 8), 0u);  // closed + empty ⇒ exit signal
}

TEST(RequestQueueTest, CloseWakesBlockedConsumer) {
  BoundedRequestQueue<int> q(2);
  std::atomic<int> popped{-1};
  std::thread consumer([&] {
    std::vector<int> batch;
    popped = static_cast<int>(q.PopBatch(&batch, 4));
  });
  q.Close();
  consumer.join();
  EXPECT_EQ(popped.load(), 0);
}

// ----------------------------------------------------------- serving node

class ServingNodeTest : public ::testing::Test {
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
    snapshot_ = store::StoreSnapshot::FromMapped(std::move(image).value());
  }
  static void TearDownTestSuite() {
    snapshot_.reset();
    delete store_;
    delete testbed_;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  static ServingConfig BaseConfig() {
    ServingConfig config;
    config.num_workers = 2;
    config.queue_capacity = 256;
    config.max_batch = 4;
    config.params.num_candidates = 100;
    config.params.diversify.k = 10;
    return config;
  }

  /// An ambiguous query (present in the store) and a passthrough query.
  static std::string StoredQuery() {
    return store_->entries().begin()->first;
  }
  static std::string NoiseQuery() {
    return testbed_->universe().noise_queries[0];
  }

  static pipeline::Testbed* testbed_;
  static store::DiversificationStore* store_;
  /// store_'s in-memory v4 image, the shape every node starts on.
  static std::shared_ptr<const store::StoreSnapshot> snapshot_;
};

pipeline::Testbed* ServingNodeTest::testbed_ = nullptr;
store::DiversificationStore* ServingNodeTest::store_ = nullptr;
std::shared_ptr<const store::StoreSnapshot> ServingNodeTest::snapshot_;

TEST_F(ServingNodeTest, DiversifiesStoredAndPassesThroughUnknown) {
  ServingNode node(snapshot_, testbed_, BaseConfig());

  Response stored = node.Submit(Request(StoredQuery()));
  EXPECT_TRUE(stored.ok);
  EXPECT_TRUE(stored.diversified);
  EXPECT_GE(stored.num_specializations, 2u);
  EXPECT_FALSE(stored.ranking.empty());

  Response noise = node.Submit(Request(NoiseQuery()));
  EXPECT_TRUE(noise.ok);
  EXPECT_FALSE(noise.diversified);
  EXPECT_EQ(noise.num_specializations, 0u);

  ServingStats stats = node.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.diversified, 1u);
  EXPECT_EQ(stats.passthrough, 1u);
}

TEST_F(ServingNodeTest, CachedResultsBitIdenticalToUncached) {
  ServingConfig cached_config = BaseConfig();
  cached_config.enable_cache = true;
  ServingConfig uncached_config = BaseConfig();
  uncached_config.enable_cache = false;
  ServingNode cached(snapshot_, testbed_, cached_config);
  ServingNode uncached(snapshot_, testbed_, uncached_config);

  std::vector<std::string> queries;
  for (const auto& [query, entry] : store_->entries()) {
    queries.push_back(query);
  }
  queries.push_back(NoiseQuery());

  for (const std::string& q : queries) {
    Response cold = cached.Submit(Request(q));
    Response warm = cached.Submit(Request(q));   // must come from the cache
    Response direct = uncached.Submit(Request(q));
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(cold.ranking, direct.ranking) << q;
    EXPECT_EQ(warm.ranking, direct.ranking) << q;
    EXPECT_EQ(warm.diversified, direct.diversified) << q;
  }

  ServingStats stats = cached.Stats();
  EXPECT_GE(stats.cache_hits, queries.size());
  EXPECT_GT(stats.cache_hit_rate, 0.0);
  EXPECT_EQ(uncached.Stats().cache_hits, 0u);
}

TEST_F(ServingNodeTest, StreamingColdPathBitIdenticalToMaterialized) {
  // The fixture store compiles plans at the default pipeline params,
  // but BaseConfig serves at num_candidates = 100 — incompatible, so
  // every stored query takes the cold path. With streaming on that
  // path must scan-and-maintain; with it off, materialize-then-select;
  // the rankings must match bit for bit either way.
  ServingConfig streaming_config = BaseConfig();
  streaming_config.streaming_cold_path = true;
  streaming_config.enable_cache = false;
  ServingConfig materialized_config = BaseConfig();
  materialized_config.streaming_cold_path = false;
  materialized_config.enable_cache = false;
  ServingNode streaming(snapshot_, testbed_, streaming_config);
  ServingNode materialized(snapshot_, testbed_, materialized_config);

  size_t diversified = 0;
  for (const auto& [query, entry] : store_->entries()) {
    Response s = streaming.Submit(Request(query));
    Response m = materialized.Submit(Request(query));
    EXPECT_EQ(s.ranking, m.ranking) << query;
    EXPECT_EQ(s.diversified, m.diversified) << query;
    EXPECT_EQ(s.num_specializations, m.num_specializations) << query;
    EXPECT_FALSE(m.streaming_served) << query;
    if (s.diversified) {
      ++diversified;
      EXPECT_TRUE(s.streaming_served) << query;
      EXPECT_FALSE(s.plan_served) << query;
    }
  }
  ASSERT_GT(diversified, 0u);

  // Passthrough queries never touch the selector on either node.
  Response noise = streaming.Submit(Request(NoiseQuery()));
  EXPECT_FALSE(noise.streaming_served);
  EXPECT_EQ(noise.ranking, materialized.Submit(Request(NoiseQuery())).ranking);

  ServingStats streaming_stats = streaming.Stats();
  EXPECT_EQ(streaming_stats.streaming_served, diversified);
  EXPECT_LE(streaming_stats.streaming_served, streaming_stats.diversified);
  EXPECT_EQ(materialized.Stats().streaming_served, 0u);
}

TEST_F(ServingNodeTest, NormalizedQueriesShareACacheSlot) {
  ServingNode node(snapshot_, testbed_, BaseConfig());
  std::string q = StoredQuery();
  std::string shouty = "  " + std::string(q);
  for (char& c : shouty) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  Response first = node.Submit(Request(q));
  Response second = node.Submit(Request(shouty + "  "));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.ranking, second.ranking);
}

TEST_F(ServingNodeTest, BatchingOnOffProducesIdenticalResults) {
  ServingConfig unbatched_config = BaseConfig();
  unbatched_config.max_batch = 1;
  unbatched_config.enable_cache = false;
  ServingConfig batched_config = BaseConfig();
  batched_config.max_batch = 16;
  batched_config.enable_cache = false;
  batched_config.num_workers = 1;  // force queue buildup ⇒ real batches
  ServingNode unbatched(snapshot_, testbed_, unbatched_config);
  ServingNode batched(snapshot_, testbed_, batched_config);

  std::vector<std::string> mix;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& [query, entry] : store_->entries()) mix.push_back(query);
    mix.push_back(NoiseQuery());
  }

  auto run = [&](ServingNode* node) {
    std::map<size_t, Response> results;
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    size_t accepted = 0;
    for (size_t i = 0; i < mix.size(); ++i) {
      bool ok = node->SubmitAsync(Request(mix[i]), [&, i](Response r) {
        std::lock_guard<std::mutex> lock(mu);
        results[i] = std::move(r);
        ++done;
        cv.notify_one();
      });
      EXPECT_TRUE(ok);
      if (ok) ++accepted;
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == accepted; });
    return results;
  };

  std::map<size_t, Response> a = run(&unbatched);
  std::map<size_t, Response> b = run(&batched);
  ASSERT_EQ(a.size(), mix.size());
  ASSERT_EQ(b.size(), mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(a[i].ranking, b[i].ranking) << mix[i];
    EXPECT_EQ(a[i].diversified, b[i].diversified) << mix[i];
  }
  // With one worker and a deep queue, duplicates inside a wakeup are
  // computed once even though the cache is off.
  ServingStats stats = batched.Stats();
  EXPECT_GT(stats.mean_batch, 1.0);
  EXPECT_GT(stats.batch_dedup_hits, 0u);
}

TEST_F(ServingNodeTest, ShutdownDrainsInFlightRequests) {
  ServingConfig config = BaseConfig();
  config.num_workers = 1;
  config.max_batch = 2;
  auto node = std::make_unique<ServingNode>(snapshot_, testbed_, config);

  std::atomic<size_t> callbacks{0};
  size_t submitted = 0;
  for (int i = 0; i < 64; ++i) {
    if (node->SubmitAsync(Request(i % 2 == 0 ? StoredQuery() : NoiseQuery()),
                          [&](Response r) {
                            EXPECT_TRUE(r.ok);
                            callbacks.fetch_add(1);
                          })) {
      ++submitted;
    }
  }
  node->Shutdown();  // must drain: every accepted request answered
  EXPECT_EQ(callbacks.load(), submitted);
  EXPECT_EQ(node->Stats().completed, submitted);

  // Post-shutdown: submission is rejected, Submit fails fast, Shutdown
  // stays idempotent, and the destructor is safe.
  EXPECT_FALSE(node->SubmitAsync(Request(StoredQuery()), [](Response) {}));
  EXPECT_FALSE(node->Submit(Request(StoredQuery())).ok);
  node->Shutdown();
  node.reset();
}

// ---------------------------------------------------------------- replay

TEST_F(ServingNodeTest, ReplayMixDrivesEveryRequestToCompletion) {
  ServingConfig config = BaseConfig();
  config.queue_capacity = 256;  // ≥ mix size ⇒ no shedding
  ServingNode node(snapshot_, testbed_, config);

  std::vector<std::string> mix;
  for (int rep = 0; rep < 8; ++rep) {
    mix.push_back(StoredQuery());
    mix.push_back(NoiseQuery());
  }
  ReplayOutcome out = ReplayMix(&node, mix);
  EXPECT_EQ(out.accepted, mix.size());
  EXPECT_GT(out.wall_ms, 0.0);
  EXPECT_GT(out.qps, 0.0);
  // QPS is accepted / wall, by definition.
  EXPECT_NEAR(out.qps, 1000.0 * static_cast<double>(out.accepted) /
                           out.wall_ms,
              1e-6);

  ServingStats stats = node.Stats();
  EXPECT_EQ(stats.accepted, mix.size());
  EXPECT_EQ(stats.completed, mix.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServingNodeTest, ReplayMixEmptyMixReturnsImmediately) {
  ServingNode node(snapshot_, testbed_, BaseConfig());
  ReplayOutcome out = ReplayMix(&node, {});
  EXPECT_EQ(out.accepted, 0u);
  EXPECT_EQ(out.qps, 0.0);
  EXPECT_EQ(node.Stats().accepted, 0u);
}

TEST_F(ServingNodeTest, ReplayMixCountsShedRequests) {
  // A shut-down node rejects every submission: ReplayMix must report
  // zero accepted and still return (no wait on callbacks that will
  // never fire).
  ServingNode node(snapshot_, testbed_, BaseConfig());
  node.Shutdown();
  ReplayOutcome out =
      ReplayMix(&node, {StoredQuery(), NoiseQuery(), StoredQuery()});
  EXPECT_EQ(out.accepted, 0u);
  EXPECT_EQ(node.Stats().rejected, 3u);
}

TEST_F(ServingNodeTest, StatsConsistentUnderConcurrentLoad) {
  ServingConfig config = BaseConfig();
  config.num_workers = 3;
  ServingNode node(snapshot_, testbed_, config);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 25;
  std::vector<std::string> queries = {StoredQuery(), NoiseQuery()};
  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        Response r = node.Submit(Request(queries[(c + i) % queries.size()]));
        if (r.ok) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  constexpr uint64_t kTotal = kClients * kPerClient;
  EXPECT_EQ(ok_count.load(), kTotal);
  ServingStats stats = node.Stats();
  EXPECT_EQ(stats.accepted, kTotal);
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.diversified + stats.passthrough, kTotal);
  // Every completed request is either a cache lookup (hit or miss) or a
  // batch-local dedup hit.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.batch_dedup_hits,
            kTotal);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.batched_requests, kTotal);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.p99_ms);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace serving
}  // namespace optselect
