#include "cluster/sharded_cluster.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "serving/latency_histogram.h"

namespace optselect {
namespace cluster {

std::vector<std::string> HottestStoredKeys(
    const store::MappedStoreFile& store,
    const querylog::PopularityMap& popularity, size_t k) {
  std::vector<std::pair<uint64_t, std::string>> ranked;
  ranked.reserve(store.entry_count());
  for (const store::MappedEntry& entry : store.entries()) {
    std::string key(entry.key);
    ranked.emplace_back(popularity.Frequency(key), std::move(key));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (ranked.size() > k) ranked.resize(k);
  std::vector<std::string> keys;
  keys.reserve(ranked.size());
  for (auto& [freq, key] : ranked) keys.push_back(std::move(key));
  return keys;
}

ShardedCluster::ShardedCluster(
    std::shared_ptr<const store::MappedStoreFile> mapped,
    const index::Searcher* searcher, const index::SnippetExtractor* snippets,
    const text::Analyzer* analyzer, const corpus::DocumentStore* documents,
    const querylog::PopularityMap* popularity, ClusterConfig config) {
  const size_t n = std::max<size_t>(1, config.num_shards);
  // Replication only spreads load when there is more than one shard to
  // spread it over.
  if (config.replicate_hot > 0 && popularity != nullptr && n > 1) {
    replicated_keys_ =
        HottestStoredKeys(*mapped, *popularity, config.replicate_hot);
  }
  std::unordered_set<std::string> replicated(replicated_keys_.begin(),
                                             replicated_keys_.end());
  filters_.reserve(n);
  shards_.reserve(n);
  std::vector<serving::Frontend*> endpoints;
  endpoints.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store::ShardFilter filter;
    filter.num_shards = n;
    filter.shard_index = i;
    filter.replicated = replicated;
    serving::ServingConfig node_config = config.node;
    node_config.registry = &registry_;
    node_config.metric_labels = {{"shard", std::to_string(i)}};
    // The view's keep-predicate is a copy of the filter, so filters_
    // and the snapshots never disagree.
    auto view = store::StoreSnapshot::MappedShard(
        mapped, [filter](std::string_view key) { return filter.Keeps(key); });
    shards_.push_back(std::make_unique<serving::ServingNode>(
        std::move(view), searcher, snippets, analyzer, documents,
        node_config));
    filters_.push_back(std::move(filter));
    endpoints.push_back(shards_.back().get());
  }
  router_ = std::make_unique<QueryRouter>(
      std::move(endpoints), std::move(replicated), config.failover,
      &registry_);
}

ShardedCluster::ShardedCluster(
    std::shared_ptr<const store::MappedStoreFile> mapped,
    const pipeline::Testbed* testbed,
    const querylog::PopularityMap* popularity, ClusterConfig config)
    : ShardedCluster(std::move(mapped), &testbed->searcher(),
                     &testbed->snippets(), &testbed->analyzer(),
                     &testbed->corpus().store, popularity, config) {}

ShardedCluster::~ShardedCluster() { Shutdown(); }

void ShardedCluster::Shutdown() {
  for (auto& shard : shards_) shard->Shutdown();
}

void ShardedCluster::set_tracer(obs::Tracer* tracer) {
  router_->set_tracer(tracer);
  for (auto& shard : shards_) shard->set_tracer(tracer);
}

ClusterStats ShardedCluster::Stats() const {
  ClusterStats cs;
  cs.num_shards = shards_.size();
  cs.per_shard.reserve(shards_.size());

  serving::LatencyHistogram merged;
  serving::ServingStats& total = cs.total;
  for (const auto& shard : shards_) {
    serving::ServingStats s = shard->Stats();
    total.accepted += s.accepted;
    total.rejected += s.rejected;
    total.completed += s.completed;
    total.diversified += s.diversified;
    total.plan_served += s.plan_served;
    total.streaming_served += s.streaming_served;
    total.passthrough += s.passthrough;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_evictions += s.cache_evictions;
    total.cache_invalidations += s.cache_invalidations;
    total.reloads += s.reloads;
    total.faulted += s.faulted;
    total.reload_failures += s.reload_failures;
    total.store_version = std::max(total.store_version, s.store_version);
    total.batches += s.batches;
    total.batched_requests += s.batched_requests;
    total.admission_answers += s.admission_answers;
    total.batch_dedup_hits += s.batch_dedup_hits;
    total.uptime_seconds = std::max(total.uptime_seconds, s.uptime_seconds);
    total.queue_depth += s.queue_depth;
    total.cache_entries += s.cache_entries;
    merged.MergeFrom(shard->latency_histogram());
    cs.per_shard.push_back(std::move(s));
  }

  uint64_t lookups = total.cache_hits + total.cache_misses;
  total.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(total.cache_hits) /
                         static_cast<double>(lookups);
  total.mean_batch =
      total.batches == 0
          ? 0.0
          : static_cast<double>(total.batched_requests) /
                static_cast<double>(total.batches);
  total.qps = total.uptime_seconds > 0
                  ? static_cast<double>(total.completed) /
                        total.uptime_seconds
                  : 0.0;
  // Quantiles over the union distribution, not an average of per-shard
  // quantiles: the cluster's p99 is dominated by its slowest shard.
  total.mean_ms = merged.MeanMicros() / 1000.0;
  total.p50_ms = merged.PercentileMicros(0.50) / 1000.0;
  total.p95_ms = merged.PercentileMicros(0.95) / 1000.0;
  total.p99_ms = merged.PercentileMicros(0.99) / 1000.0;

  cs.router = router_->stats();
  return cs;
}

}  // namespace cluster
}  // namespace optselect
