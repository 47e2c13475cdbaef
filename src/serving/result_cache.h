// Sharded LRU result cache for the query-serving subsystem.
//
// Web query streams are heavy-tailed (the Zipf shape the synthetic log
// reproduces), so a small LRU over final rankings absorbs a large share
// of traffic. The map is striped into N independently locked shards —
// keys hash to a fixed shard, so two workers only contend when they
// touch the same stripe — and values are shared_ptr<const V>, handed out
// without copying and kept alive even if evicted mid-read.
//
// Counters (hits / misses / evictions) are relaxed atomics: exact under
// a quiescent cache, monotone and race-free (but not mutually ordered)
// under concurrent traffic.

#ifndef OPTSELECT_SERVING_RESULT_CACHE_H_
#define OPTSELECT_SERVING_RESULT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace optselect {
namespace serving {

/// Cache sizing knobs.
struct ResultCacheOptions {
  /// Maximum number of cached entries across all shards.
  size_t capacity = 4096;
  /// Number of mutex-striped shards (rounded up to at least 1; each
  /// shard gets capacity / num_shards slots, at least 1).
  size_t num_shards = 8;
};

/// Monotone counters; a snapshot is returned by stats().
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  uint64_t invalidations = 0;  ///< explicit Erase hits (store reloads)

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe sharded LRU keyed on std::string (see cache_key.h).
template <typename V>
class ShardedLruCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  explicit ShardedLruCache(ResultCacheOptions options)
      : options_(Sanitize(options)), shards_(options_.num_shards) {
    size_t per_shard =
        std::max<size_t>(1, options_.capacity / options_.num_shards);
    for (Shard& s : shards_) s.capacity = per_shard;
  }

  /// Returns the cached value and refreshes its recency, or nullptr on
  /// miss. Counts a hit or a miss.
  ValuePtr Get(const std::string& key) { return Lookup(key, true); }

  /// Get for a caller that looks again on a miss (a serving node's
  /// admission probe; its worker's Get follows): a hit is counted, a
  /// miss is left for the second lookup to count, so each request adds
  /// exactly one hit or one miss.
  ValuePtr Probe(const std::string& key) { return Lookup(key, false); }

  /// Inserts or replaces; evicts the shard's least-recently-used entry
  /// when the shard is full.
  void Put(const std::string& key, ValuePtr value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= shard.capacity) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.push_front(Entry{key, std::move(value)});
    shard.index[key] = shard.lru.begin();
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drops one entry if present (store reloads invalidate exactly the
  /// keys whose stored entries changed). Returns true when an entry was
  /// removed; counted separately from capacity evictions.
  bool Erase(const std::string& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Total entries currently cached (sums shard sizes under their locks).
  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.lru.size();
    }
    return n;
  }

  /// Drops every entry; counters are preserved.
  void Clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.lru.clear();
      s.index.clear();
    }
  }

  ResultCacheStats stats() const {
    ResultCacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.insertions = insertions_.load(std::memory_order_relaxed);
    st.invalidations = invalidations_.load(std::memory_order_relaxed);
    return st;
  }

  const ResultCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string key;
    ValuePtr value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index;
    size_t capacity = 1;
  };

  ValuePtr Lookup(const std::string& key, bool count_miss) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  static ResultCacheOptions Sanitize(ResultCacheOptions o) {
    if (o.num_shards == 0) o.num_shards = 1;
    if (o.capacity == 0) o.capacity = 1;
    if (o.num_shards > o.capacity) o.num_shards = o.capacity;
    return o;
  }

  Shard& ShardFor(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  ResultCacheOptions options_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_RESULT_CACHE_H_
