// Versioned, immutable store snapshots — the unit of hot reload.
//
// The serving tier never mutates a DiversificationStore in place: it
// holds a shared_ptr<const StoreSnapshot> and swaps the pointer (RCU
// style) when a rebuilt store is ready. In-flight requests keep their
// reference to the old snapshot until they finish, so a swap is
// zero-downtime by construction; the last reference reclaims the old
// store. BuildSnapshot produces the next snapshot from a base plus a
// delta of freshly mined entries, reports exactly which normalized
// query keys changed (so the serving result cache can be invalidated
// per-key instead of flushed), and bumps the monotonic content version
// that DiversificationStore::Save persists.
//
// A snapshot has one of two backings:
//
//   mapped — FromMapped / MappedShard over a refcounted
//            MappedStoreFile (store format v4): lookups resolve to
//            EntryRefs whose spans point straight at the mmapped
//            columns. Every serving node starts on one — the file's
//            mapping or an in-memory store's FromStore image. A
//            MappedShard is an offset-filtered *view* over the same
//            single mapping — N shards share one physical copy of the
//            store. The mapping is released only when the last
//            snapshot (or in-flight request) holding the file drops,
//            which is what makes hot reload safe while old pages are
//            still read.
//   heap   — Own over a DiversificationStore (entries parsed into
//            std::vector-backed TermVectors). BuildSnapshot emits one
//            on every reload.
//
// Find() is the uniform hot-path lookup for both backings. store()
// remains available everywhere — on a mapped snapshot it materializes
// a heap copy once, lazily (rebuilds and the refresher need owned
// entries; the serving hot path never calls it).

#ifndef OPTSELECT_STORE_STORE_SNAPSHOT_H_
#define OPTSELECT_STORE_STORE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "store/diversification_store.h"
#include "store/mapped_store.h"

namespace optselect {
namespace store {

/// An immutable, refcounted view of one store build. Create with Own
/// (snapshot owns a heap store — what a reload builds), FromMapped
/// (zero-copy over a v4 mapping) or MappedShard (key-filtered
/// zero-copy view over a shared v4 mapping).
class StoreSnapshot {
 public:
  static std::shared_ptr<const StoreSnapshot> Own(
      DiversificationStore store);
  /// Zero-copy snapshot over a mapped v4 store. The file is shared,
  /// not copied; it stays mapped while any snapshot (or EntryRef
  /// holder) references it.
  static std::shared_ptr<const StoreSnapshot> FromMapped(
      std::shared_ptr<const MappedStoreFile> file);
  /// Key-filtered zero-copy view over a shared mapping: the snapshot
  /// indexes only the normalized keys `keep` accepts, with no per-shard
  /// entry copies. `keep` is consulted once per key at construction.
  static std::shared_ptr<const StoreSnapshot> MappedShard(
      std::shared_ptr<const MappedStoreFile> file,
      std::function<bool(std::string_view)> keep);

  /// True when backed by a MappedStoreFile (v4 zero-copy path).
  bool mapped() const { return file_ != nullptr; }
  /// The mapping backing this snapshot; null for heap snapshots.
  const std::shared_ptr<const MappedStoreFile>& mapped_file() const {
    return file_;
  }

  /// Uniform hot-path lookup by normalized key: a heap or mapped
  /// EntryRef, empty when the key is not stored (⇒ not ambiguous).
  /// The returned ref is valid while this snapshot is alive.
  EntryRef Find(std::string_view normalized_key) const;

  /// Entries visible through this snapshot (after shard filtering).
  size_t entry_count() const;

  /// Heap view of this snapshot's contents. For heap snapshots this is
  /// the backing store; for mapped snapshots the first call
  /// materializes a heap copy (thread-safe, cached) — intended for
  /// rebuilds, refreshers and tests, NOT for the request path.
  const DiversificationStore& store() const;

  /// Monotonic content version.
  uint64_t version() const {
    return file_ != nullptr ? file_->store_version() : owned_->version();
  }

  StoreSnapshot(const StoreSnapshot&) = delete;
  StoreSnapshot& operator=(const StoreSnapshot&) = delete;

 private:
  explicit StoreSnapshot(std::unique_ptr<DiversificationStore> owned)
      : owned_(std::move(owned)) {}
  StoreSnapshot(std::shared_ptr<const MappedStoreFile> file,
                std::function<bool(std::string_view)> keep);

  std::unique_ptr<DiversificationStore> owned_;

  std::shared_ptr<const MappedStoreFile> file_;
  /// Set for MappedShard views; empty ⇒ the whole file is visible.
  std::function<bool(std::string_view)> keep_;
  bool filtered_ = false;
  /// Pointer-only per-shard index (keys view the mapped string pool).
  std::unordered_map<std::string_view, const MappedEntry*> shard_index_;

  /// Lazily materialized heap copy for store() on mapped snapshots.
  mutable std::once_flag materialize_once_;
  mutable std::unique_ptr<DiversificationStore> materialized_;
};

/// A set of mined changes to apply on top of a base snapshot.
struct StoreDelta {
  /// Entries to insert or replace (from re-mining dirty queries).
  std::vector<StoredEntry> upserts;
  /// Queries that stopped being ambiguous and must be dropped.
  std::vector<std::string> removals;

  bool empty() const { return upserts.empty() && removals.empty(); }
};

/// Outcome of BuildSnapshot.
struct SnapshotBuildResult {
  std::shared_ptr<const StoreSnapshot> snapshot;
  /// Normalized store keys whose entry changed (upserted with different
  /// contents, newly inserted, or removed) — exactly the keys whose
  /// cached rankings may now be stale.
  std::vector<std::string> changed_keys;
  size_t upserts_applied = 0;
  size_t removals_applied = 0;
  /// Upserts identical to the base entry, skipped without invalidating.
  size_t unchanged_skipped = 0;
};

/// Builds the next snapshot: copies the base store (nullptr base ⇒
/// empty store, version 0), applies the delta, and stamps
/// base version + 1. A mapped base is materialized to heap first (the
/// rebuild owns its entries; serving swaps to the heap-backed result).
/// Upserts that fail the store's ambiguity invariant
/// (< 2 specializations) are treated as removals of that key, matching
/// Algorithm 1's "not ambiguous ⇒ not stored". Content-identical
/// upserts are skipped without invalidating (their cached rankings are
/// still exact), except that a compiled query plan on the upsert is
/// adopted when the base entry had none (a plan-less base gains plans
/// without invalidating anything).
SnapshotBuildResult BuildSnapshot(const StoreSnapshot* base,
                                  const StoreDelta& delta);

}  // namespace store
}  // namespace optselect

#endif  // OPTSELECT_STORE_STORE_SNAPSHOT_H_
