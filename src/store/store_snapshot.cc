#include "store/store_snapshot.h"

#include <set>
#include <utility>

#include "util/strings.h"

namespace optselect {
namespace store {

std::shared_ptr<const StoreSnapshot> StoreSnapshot::Own(
    DiversificationStore store) {
  auto owned = std::make_unique<DiversificationStore>(std::move(store));
  return std::shared_ptr<const StoreSnapshot>(
      new StoreSnapshot(std::move(owned)));
}

std::shared_ptr<const StoreSnapshot> StoreSnapshot::FromMapped(
    std::shared_ptr<const MappedStoreFile> file) {
  return std::shared_ptr<const StoreSnapshot>(
      new StoreSnapshot(std::move(file), nullptr));
}

std::shared_ptr<const StoreSnapshot> StoreSnapshot::MappedShard(
    std::shared_ptr<const MappedStoreFile> file,
    std::function<bool(std::string_view)> keep) {
  return std::shared_ptr<const StoreSnapshot>(
      new StoreSnapshot(std::move(file), std::move(keep)));
}

StoreSnapshot::StoreSnapshot(std::shared_ptr<const MappedStoreFile> file,
                             std::function<bool(std::string_view)> keep)
    : file_(std::move(file)), keep_(std::move(keep)), filtered_(keep_ != nullptr) {
  if (filtered_) {
    shard_index_.reserve(file_->entry_count());
    for (const MappedEntry& entry : file_->entries()) {
      if (keep_(entry.key)) shard_index_.emplace(entry.key, &entry);
    }
  }
}

EntryRef StoreSnapshot::Find(std::string_view normalized_key) const {
  if (file_ != nullptr) {
    if (filtered_) {
      auto it = shard_index_.find(normalized_key);
      return it == shard_index_.end() ? EntryRef() : EntryRef(it->second);
    }
    return EntryRef(file_->FindEntry(normalized_key));
  }
  return EntryRef(owned_->Find(normalized_key));
}

size_t StoreSnapshot::entry_count() const {
  if (file_ != nullptr) {
    return filtered_ ? shard_index_.size() : file_->entry_count();
  }
  return owned_->size();
}

const DiversificationStore& StoreSnapshot::store() const {
  if (file_ == nullptr) return *owned_;
  std::call_once(materialize_once_, [this] {
    auto heap =
        std::make_unique<DiversificationStore>(file_->Materialize());
    if (filtered_) {
      // Shard views materialize only their slice.
      std::vector<std::string> drop;
      for (const auto& [key, entry] : heap->entries()) {
        (void)entry;
        if (!keep_(key)) drop.push_back(key);
      }
      for (const std::string& key : drop) heap->Remove(key);
    }
    materialized_ = std::move(heap);
  });
  return *materialized_;
}

SnapshotBuildResult BuildSnapshot(const StoreSnapshot* base,
                                  const StoreDelta& delta) {
  SnapshotBuildResult out;
  DiversificationStore next =
      base != nullptr ? base->store() : DiversificationStore();
  std::set<std::string> changed;  // sorted ⇒ deterministic output

  for (const StoredEntry& entry : delta.upserts) {
    std::string key = util::NormalizeQueryText(entry.query);
    if (entry.specializations.size() < 2) {
      // No longer ambiguous: an upsert below the invariant is a removal.
      if (next.Remove(entry.query)) {
        changed.insert(std::move(key));
        ++out.removals_applied;
      }
      continue;
    }
    const StoredEntry* existing = next.Find(entry.query);
    if (existing != nullptr && StoredEntriesEqual(*existing, entry)) {
      // Mined content unchanged ⇒ no cache invalidation — but adopt the
      // upsert's compiled plan when the base entry has none (e.g. a
      // plans-off base refreshed by a plan-compiling miner). Rankings
      // stay bit-identical either way; only the serving cost drops.
      if (existing->plan.empty() && !entry.plan.empty()) {
        next.Put(entry).IgnoreError();
      }
      ++out.unchanged_skipped;
      continue;
    }
    if (next.Put(entry).ok()) {
      changed.insert(std::move(key));
      ++out.upserts_applied;
    }
  }
  for (const std::string& query : delta.removals) {
    if (next.Remove(query)) {
      changed.insert(util::NormalizeQueryText(query));
      ++out.removals_applied;
    }
  }

  next.set_version((base != nullptr ? base->version() : 0) + 1);
  out.snapshot = StoreSnapshot::Own(std::move(next));
  out.changed_keys.assign(changed.begin(), changed.end());
  return out;
}

}  // namespace store
}  // namespace optselect
