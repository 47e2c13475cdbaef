#include "serving/store_refresher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "store/store_snapshot.h"
#include "util/strings.h"
#include "util/timer.h"

namespace optselect {
namespace serving {

StoreRefresher::StoreRefresher(ServingNode* node,
                               const index::Searcher* searcher,
                               const index::SnippetExtractor* snippets,
                               const text::Analyzer* analyzer,
                               const corpus::DocumentStore* documents,
                               const querylog::QueryLog& initial_log,
                               StoreRefresherConfig config)
    : node_(node),
      searcher_(searcher),
      snippets_(snippets),
      analyzer_(analyzer),
      documents_(documents),
      config_(config),
      ingestor_(config.log_path),
      recommender_(config.recommender),
      detector_(&recommender_, config.detector),
      segmenter_(config.segmenter) {
  // Re-mined entries must carry plans the node can serve (see header).
  config_.builder.plan.num_candidates =
      node_->config().params.num_candidates;
  config_.builder.plan.threshold_c = node_->config().params.threshold_c;
  if (!initial_log.empty()) {
    // One-time seed: the mining state the base store was built from.
    // Delta segmentation is time-only (see header), so the seed uses
    // the same rule for consistency.
    recommender_.Train(initial_log,
                       segmenter_.Segment(initial_log, nullptr));
  }
  // Records already on disk are assumed reflected in the base store;
  // tail only what arrives from here on. A missing file is fine — the
  // tail starts at offset 0 once it appears.
  ingestor_.SkipToEnd().IgnoreError();
}

StoreRefresher::~StoreRefresher() { Stop(); }

void StoreRefresher::Start() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (loop_.joinable()) return;
  stop_requested_ = false;
  loop_ = std::thread([this] { Loop(); });
}

void StoreRefresher::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!loop_.joinable()) return;
    stop_requested_ = true;
  }
  loop_cv_.notify_all();
  loop_.join();  // a joined thread is no longer joinable ⇒ Start works
}

void StoreRefresher::Loop() {
  std::unique_lock<std::mutex> lock(loop_mu_);
  while (!stop_requested_) {
    if (loop_cv_.wait_for(lock, config_.interval,
                          [this] { return stop_requested_; })) {
      return;
    }
    lock.unlock();
    TickOnce().IgnoreError();  // errors are counted in stats
    lock.lock();
  }
}

util::Status StoreRefresher::TickOnce() {
  std::lock_guard<std::mutex> tick_lock(tick_mu_);
  util::WallTimer timer;
  auto finish = [&](util::Status status) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.ticks;
    if (!status.ok()) ++stats_.errors;
    stats_.last_tick_ms = timer.ElapsedMillis();
    return status;
  };

  auto polled = ingestor_.Poll();
  if (!polled.ok()) return finish(polled.status());
  querylog::IngestDelta delta = std::move(polled).value();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.ingested_records += delta.log.size();
    stats_.malformed_lines += delta.malformed_lines;
  }
  // An empty poll still proceeds when a refused swap is pending — the
  // retry must not wait for fresh traffic.
  if (delta.empty() && pending_snapshot_ == nullptr) {
    return finish(util::Status::Ok());
  }

  // Fold the delta into the mining state, then re-run Algorithm 1 on
  // exactly the queries whose statistics moved.
  recommender_.TrainIncremental(delta.log,
                                segmenter_.Segment(delta.log, nullptr));
  // Mine (and later build) against the newest content we have: the
  // node's active snapshot, or the pending one a refused swap left
  // behind — so removal detection and unchanged-skipping see the
  // changes that are still waiting to land.
  std::shared_ptr<const store::StoreSnapshot> base =
      pending_snapshot_ != nullptr ? pending_snapshot_ : node_->snapshot();
  store::StoreDelta mined = store::MineDelta(
      detector_, *searcher_, *snippets_, *analyzer_, *documents_,
      delta.dirty_queries, config_.builder, base->store());
  if (config_.key_filter) {
    // Sharded serving: keep only the slice of the delta this node's
    // store holds (normalized keys, matching the store's Put keys).
    auto dropped = [this](const std::string& query) {
      return !config_.key_filter(util::NormalizeQueryText(query));
    };
    mined.upserts.erase(
        std::remove_if(mined.upserts.begin(), mined.upserts.end(),
                       [&](const store::StoredEntry& e) {
                         return dropped(e.query);
                       }),
        mined.upserts.end());
    mined.removals.erase(std::remove_if(mined.removals.begin(),
                                        mined.removals.end(), dropped),
                         mined.removals.end());
  }
  if (mined.empty() && pending_snapshot_ == nullptr) {
    return finish(util::Status::Ok());
  }

  // Build on top of the same base: a pending snapshot's changes ride
  // into this build and its invalidation keys carry forward, so a
  // refusal defers the update instead of losing it.
  store::SnapshotBuildResult built;
  if (!mined.empty()) {
    built = store::BuildSnapshot(base.get(), mined);
  } else {
    built.snapshot = pending_snapshot_;  // pure retry, nothing new mined
  }
  std::vector<std::string> changed_keys = std::move(built.changed_keys);
  changed_keys.insert(changed_keys.end(), pending_changed_keys_.begin(),
                      pending_changed_keys_.end());
  std::sort(changed_keys.begin(), changed_keys.end());
  changed_keys.erase(std::unique(changed_keys.begin(), changed_keys.end()),
                     changed_keys.end());
  if (changed_keys.empty()) {
    // Every re-mined entry came out identical — nothing to swap.
    return finish(util::Status::Ok());
  }

  size_t upserts = built.upserts_applied + pending_upserts_;
  size_t removals = built.removals_applied + pending_removals_;
  ServingNode::ReloadOutcome reload =
      node_->ReloadStore(built.snapshot, changed_keys);
  if (!reload.ok) {
    // Swap refused (injected reload fault): the node keeps serving its
    // current snapshot and the tick counts as an error; the built
    // snapshot stays pending and the next tick retries the swap.
    pending_snapshot_ = built.snapshot;
    pending_changed_keys_ = std::move(changed_keys);
    pending_upserts_ = upserts;
    pending_removals_ = removals;
    return finish(
        util::Status::Internal("store reload refused; swap kept pending"));
  }
  pending_snapshot_.reset();
  pending_changed_keys_.clear();
  pending_upserts_ = 0;
  pending_removals_ = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.swaps;
    stats_.upserts += upserts;
    stats_.removals += removals;
    stats_.store_version = built.snapshot->version();
  }
  if (!config_.persist_path.empty()) {
    return finish(built.snapshot->store().Save(config_.persist_path));
  }
  return finish(util::Status::Ok());
}

StoreRefresherStats StoreRefresher::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace serving
}  // namespace optselect
