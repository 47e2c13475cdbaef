// Background store refresh loop — closes the paper's offline/online gap.
//
// Section 4.1 mines the diversification store from a long-term query
// log once, offline. A StoreRefresher keeps a live ServingNode's store
// converging toward the log as it grows, without ever reprocessing the
// full log:
//
//   tick:  LogIngestor.Poll()                 (tail only the new bytes)
//          ─> ShortcutsRecommender::TrainIncremental(delta)
//          ─> store::MineDelta(dirty queries)  (re-run Algorithm 1 on
//                                              the affected queries)
//          ─> store::BuildSnapshot(base, delta)
//          ─> node->ReloadStore(snapshot, changed_keys)
//          ─> optional Save() of the versioned snapshot
//
// Construction seeds the mining state from the log the base store was
// built from (one-time cost equal to the offline build), after which
// every tick costs O(new records + dirty queries). Ticks that ingest
// nothing, or whose delta changes nothing, swap nothing.
//
// Delta sessions are segmented with the time rule only: the query-flow
// graph chaining signal needs graph-global weights, and rebuilding
// those per tick is exactly the full recompute this loop exists to
// avoid. A session spanning a poll boundary is split at the boundary —
// both halves still contribute their in-half refinement pairs.
//
// Run it on a cadence with Start()/Stop(), or drive it deterministically
// with TickOnce() (tests, the `:refresh` REPL command).

#ifndef OPTSELECT_SERVING_STORE_REFRESHER_H_
#define OPTSELECT_SERVING_STORE_REFRESHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus/document_store.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "querylog/log_ingestor.h"
#include "querylog/session_segmenter.h"
#include "recommend/ambiguity_detector.h"
#include "recommend/shortcuts_recommender.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "text/analyzer.h"
#include "util/status.h"

namespace optselect {
namespace serving {

/// Refresh loop configuration.
struct StoreRefresherConfig {
  /// TSV query log to tail (QueryLog::SaveTsv format).
  std::string log_path;
  /// Cadence of the background loop (Start()); TickOnce ignores it.
  std::chrono::milliseconds interval{5000};
  /// When set, every swapped snapshot is also persisted here with its
  /// monotonic version (crash recovery / warm restart).
  std::string persist_path;
  /// Surrogate materialization knobs for re-mined entries. The plan
  /// compile sub-options (builder.plan) are overridden at construction
  /// with the node's own pipeline params — a refresher must compile
  /// plans the node it feeds can actually use, and bit-identical
  /// serving across a swap requires the exact same (num_candidates,
  /// threshold_c) pair.
  store::StoreBuilderOptions builder;
  /// Sharded serving (src/cluster): when set, mined upserts/removals
  /// whose *normalized* key fails this predicate are dropped before
  /// BuildSnapshot — a shard's refresher applies exactly the slice of
  /// the delta its node holds (store::ShardFilter::Keeps is the
  /// intended predicate). The mining pass itself still runs on the full
  /// dirty set: ownership is a property of the store, not of the log.
  /// Null (the default) keeps every change — single-node behaviour.
  std::function<bool(const std::string&)> key_filter;
  /// Mining knobs — should match the offline build that produced the
  /// base store, or the first refresh will "correct" entries toward the
  /// new settings.
  recommend::ShortcutsRecommender::Options recommender;
  recommend::AmbiguityDetector::Options detector;
  querylog::SessionSegmenter::Options segmenter;
};

/// Counters for observability; snapshot via stats().
struct StoreRefresherStats {
  uint64_t ticks = 0;             ///< TickOnce calls (loop or manual)
  uint64_t ingested_records = 0;  ///< log records consumed
  uint64_t malformed_lines = 0;   ///< skipped unparseable lines
  uint64_t swaps = 0;             ///< reloads actually performed
  uint64_t upserts = 0;           ///< entries inserted/replaced
  uint64_t removals = 0;          ///< entries dropped
  uint64_t errors = 0;            ///< ticks that failed (I/O)
  uint64_t store_version = 0;     ///< version after the last swap
  double last_tick_ms = 0.0;      ///< wall time of the last tick
};

/// Owns the incremental mining state and drives a node's hot reloads.
class StoreRefresher {
 public:
  /// `node` and the retrieval components are not owned and must outlive
  /// the refresher. `initial_log` (may be empty) seeds the recommender
  /// with the traffic the node's base store was mined from; the
  /// ingestor then starts tailing at the *current end* of
  /// config.log_path, so records already reflected in the base store
  /// are never re-ingested.
  StoreRefresher(ServingNode* node, const index::Searcher* searcher,
                 const index::SnippetExtractor* snippets,
                 const text::Analyzer* analyzer,
                 const corpus::DocumentStore* documents,
                 const querylog::QueryLog& initial_log,
                 StoreRefresherConfig config);

  StoreRefresher(const StoreRefresher&) = delete;
  StoreRefresher& operator=(const StoreRefresher&) = delete;

  /// Stops the loop (if running).
  ~StoreRefresher();

  /// Spawns the background loop: one TickOnce per interval. Idempotent.
  void Start();

  /// Signals the loop to exit and joins it. Idempotent; safe without
  /// Start().
  void Stop();

  /// One synchronous refresh pass. Returns Ok both when a swap happened
  /// and when there was nothing to do; fails on ingest I/O errors (the
  /// node keeps serving its current snapshot either way). Thread-safe
  /// against the background loop (ticks are serialized).
  util::Status TickOnce();

  StoreRefresherStats stats() const;

  const querylog::LogIngestor& ingestor() const { return ingestor_; }

 private:
  void Loop();

  ServingNode* node_;
  const index::Searcher* searcher_;
  const index::SnippetExtractor* snippets_;
  const text::Analyzer* analyzer_;
  const corpus::DocumentStore* documents_;
  StoreRefresherConfig config_;

  std::mutex tick_mu_;  // serializes TickOnce bodies
  querylog::LogIngestor ingestor_;
  recommend::ShortcutsRecommender recommender_;
  recommend::AmbiguityDetector detector_;
  querylog::SessionSegmenter segmenter_;

  /// A built snapshot the node refused to swap in (ReloadOutcome::ok ==
  /// false): kept, with its invalidation keys and applied-change
  /// counts, so the next tick builds on top of it and retries — a
  /// refused swap defers the update, it never loses it. Guarded by
  /// tick_mu_ (only TickOnce touches these).
  std::shared_ptr<const store::StoreSnapshot> pending_snapshot_;
  std::vector<std::string> pending_changed_keys_;
  size_t pending_upserts_ = 0;
  size_t pending_removals_ = 0;

  mutable std::mutex stats_mu_;
  StoreRefresherStats stats_;

  std::thread loop_;
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stop_requested_ = false;
};

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_STORE_REFRESHER_H_
