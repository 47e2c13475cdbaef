// Sharded multi-node serving cluster — horizontal scale for the
// paper's serving architecture.
//
// Section 4.1 sizes the diversification store for a single node; a web
// search engine runs the same design on many machines. A ShardedCluster
// models that deployment inside one process. It takes one v4 mapping —
// a store file (MappedStoreFile::Map) or an in-memory store's image
// (MappedStoreFile::FromStore) — and gives each shard a key-filtered,
// zero-copy view of it (StoreSnapshot::MappedShard). The views
// partition the keys by query hash (store::ShardFilter, the same
// FNV-1a owner a `serve --shard-index` process slices by). Each shard
// is a complete, independent `ServingNode`: its own snapshot, result
// cache, bounded queue, worker pool, and (when the CLI wires one)
// store refresher. Shards share only read-only state: the mapping and
// the retrieval stack. Startup costs one index walk per shard, and no
// entry is copied.
//
//                    one v4 mapping (file or image)
//                    │        │             │
//              MappedShard MappedShard … MappedShard   (ShardFilter i)
//                    │        │             │
//   request ──> QueryRouter ──> node₀    node₁  …  node_{N-1}
//         (hash owner; hot keys  │        │             │
//          round-robin over the  └────────┴──────┬──────┘
//          replicas; failover on           ClusterStats
//          blocking Submit)             (summed counters +
//                                        merged histograms)
//
// The top `replicate_hot` hottest *stored* queries (by PopularityMap
// frequency) are additionally visible on every shard, and the router
// spreads their traffic round-robin — the head of the Zipf distribution
// would otherwise serialize on one shard. Replica rankings are
// bit-identical to the owner's: same mapped entry, same immutable index.
//
// A cluster refreshes with one `StoreRefresher` per shard whose
// `key_filter` is the shard's ShardFilter (see store_refresher.h): each
// shard applies exactly the slice of the mined delta it holds (owner or
// replica), through the same BuildSnapshot → ReloadStore path a single
// node uses, so per-shard hot reload stays dirty-only and
// zero-downtime. A shard's first swap materializes its slice to a heap
// snapshot (reload snapshots are heap stores).

#ifndef OPTSELECT_CLUSTER_SHARDED_CLUSTER_H_
#define OPTSELECT_CLUSTER_SHARDED_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/query_router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/testbed.h"
#include "querylog/popularity.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"

namespace optselect {
namespace cluster {

/// Cluster sizing knobs.
struct ClusterConfig {
  /// Independent ServingNode shards (0 clamps to 1).
  size_t num_shards = 2;
  /// Top-K hottest stored queries replicated onto every shard for
  /// round-robin load spreading (0 disables; needs a PopularityMap).
  size_t replicate_hot = 0;
  /// Breaker + hedging knobs for the fault-tolerant serving path
  /// (QueryRouter::Submit).
  FailoverConfig failover;
  /// Per-shard serving configuration (queue, workers, cache, params) —
  /// every shard is configured identically, like a homogeneous fleet.
  serving::ServingConfig node;
  /// Metrics registry every shard and the router register into (each
  /// shard under a `shard=<i>` label). Non-owned; null makes the
  /// cluster create a private one, reachable via metrics().
  obs::MetricsRegistry* registry = nullptr;
};

/// Cluster-level stats snapshot: summed counters plus latency quantiles
/// recomputed from the *merged* per-shard histograms (averaging
/// per-shard p99s would understate the tail).
struct ClusterStats {
  size_t num_shards = 0;
  serving::ServingStats total;
  std::vector<serving::ServingStats> per_shard;
  RouterStats router;
};

/// N independent serving shards behind one QueryRouter. Implements the
/// unified serving::Frontend contract by forwarding to the router:
/// blocking Submit takes the fault-tolerant failover path (the
/// production answer path), async SubmitAsync the hash-routed fast
/// path.
class ShardedCluster : public serving::Frontend {
 public:
  /// Starts one node per shard, each over a ShardFilter view of
  /// `mapped` (the views share the mapping, so the caller may drop its
  /// handle). The other pointers are non-owned, used read-only, and
  /// must outlive the cluster. `popularity` may be null when
  /// `config.replicate_hot == 0`; `config.node.num_workers` is
  /// per-shard (0 ⇒ util::AvailableCpus() *per shard* — usually set it
  /// explicitly for clusters).
  ShardedCluster(std::shared_ptr<const store::MappedStoreFile> mapped,
                 const index::Searcher* searcher,
                 const index::SnippetExtractor* snippets,
                 const text::Analyzer* analyzer,
                 const corpus::DocumentStore* documents,
                 const querylog::PopularityMap* popularity,
                 ClusterConfig config);

  /// Convenience wiring from a fully built testbed.
  ShardedCluster(std::shared_ptr<const store::MappedStoreFile> mapped,
                 const pipeline::Testbed* testbed,
                 const querylog::PopularityMap* popularity,
                 ClusterConfig config);

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// Shuts every shard down (drain semantics, like ServingNode).
  ~ShardedCluster() override;

  /// Frontend: blocking request through the fault-tolerant path
  /// (breakers, hedging, degraded fallback) — QueryRouter::Submit.
  serving::Response Submit(const serving::Request& request) override {
    return router_->Submit(request);
  }

  /// Frontend: async request on the router's hash-routed fast path
  /// (load shedding; false ⇒ shed, callback never fires).
  bool SubmitAsync(serving::Request request,
                   std::function<void(serving::Response)> callback) override {
    return router_->SubmitAsync(std::move(request), std::move(callback));
  }

  /// Stops admission on every shard and drains them. Idempotent.
  void Shutdown();

  size_t num_shards() const { return shards_.size(); }
  serving::ServingNode* shard(size_t i) { return shards_[i].get(); }
  const store::ShardFilter& filter(size_t i) const { return filters_[i]; }
  QueryRouter& router() { return *router_; }
  const QueryRouter& router() const { return *router_; }

  /// Normalized keys replicated onto every shard, hottest first.
  const std::vector<std::string>& replicated_keys() const {
    return replicated_keys_;
  }

  /// The registry all shards and the router share: per-shard serving
  /// metrics (labelled `shard=<i>`), router metrics, stage histograms.
  const obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Installs (or clears, with nullptr) a tracer on the router's
  /// failover path and every shard's request path. The tracer must
  /// outlive the cluster or be cleared before destruction.
  void set_tracer(obs::Tracer* tracer);

  ClusterStats Stats() const;

 private:
  // Declared before the shards and router so it outlives them: both
  // hold registered handles and callbacks into the registry.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::vector<store::ShardFilter> filters_;
  std::vector<std::unique_ptr<serving::ServingNode>> shards_;
  std::vector<std::string> replicated_keys_;
  std::unique_ptr<QueryRouter> router_;
};

/// The `k` hottest normalized store keys of `store` by `popularity`
/// frequency (ties break lexicographically for determinism). This is
/// the cluster's hot-replication set; exposed for the chaos harness.
std::vector<std::string> HottestStoredKeys(
    const store::MappedStoreFile& store,
    const querylog::PopularityMap& popularity, size_t k);

}  // namespace cluster
}  // namespace optselect

#endif  // OPTSELECT_CLUSTER_SHARDED_CLUSTER_H_
