// Fixed-capacity top-N keeper — the heaps M and M_q′ of Algorithm 2.
//
// "we use a collection of |S_q| heaps each of those keeps the top
//  ⌊k·P(q′|q)⌋+1 most useful documents for that specialization. [...] all
//  the heap operations are carried out on data structures having a
//  constant size bounded by k" (Section 4), giving OptSelect its
//  O(n·log₂k) selection cost.
//
// Implementation: a size-capped min-heap ordered by key; pushing onto a
// full heap evicts the smallest element iff the new key is larger.

#ifndef OPTSELECT_CORE_BOUNDED_HEAP_H_
#define OPTSELECT_CORE_BOUNDED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace optselect {
namespace core {

/// Keeps the `capacity` entries with the largest keys among all pushes.
///
/// Ties on the key are broken deterministically by the value (smaller
/// value wins — for candidate indices this prefers the earlier rank), so
/// the retained set is a pure function of the multiset of pushes,
/// independent of push order. That property is what lets the sharded
/// parallel OptSelect merge per-shard heaps and still reproduce the
/// serial result exactly. Value must be less-than comparable.
template <typename Value>
class BoundedTopK {
 public:
  struct Entry {
    double key = 0.0;
    Value value{};
  };

  BoundedTopK() = default;
  explicit BoundedTopK(size_t capacity) : capacity_(capacity) {}

  /// Reinitializes for reuse under a new capacity. Keeps the backing
  /// allocation, which is what makes per-worker scratch heaps
  /// allocation-free across requests.
  void Reset(size_t capacity) {
    capacity_ = capacity;
    heap_.clear();
  }

  /// Offers (key, value). O(log capacity). Returns true if retained.
  bool Push(double key, Value value) {
    if (capacity_ == 0) return false;
    Entry entry{key, std::move(value)};
    if (heap_.size() < capacity_) {
      heap_.push_back(std::move(entry));
      std::push_heap(heap_.begin(), heap_.end(), WorstLast);
      return true;
    }
    if (!Better(entry, heap_.front())) return false;
    std::pop_heap(heap_.begin(), heap_.end(), WorstLast);
    heap_.back() = std::move(entry);
    std::push_heap(heap_.begin(), heap_.end(), WorstLast);
    return true;
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  size_t capacity() const { return capacity_; }

  /// Smallest retained key (only valid when non-empty).
  double min_key() const { return heap_.front().key; }

  /// Read-only view of the retained entries in internal heap order
  /// (unsorted). Lets a non-destructive drain sort a *copy* while the
  /// heap keeps accepting pushes — StreamingTopK's Finalize/Extend
  /// primitive.
  const std::vector<Entry>& entries() const { return heap_; }

  /// Extracts all retained entries ordered best-first (key descending,
  /// value ascending on ties). The keeper is left empty.
  std::vector<Entry> ExtractDescending() {
    std::vector<Entry> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), Better);
    return out;
  }

  /// Strict total order: true iff a ranks ahead of b. Sorting entries()
  /// with it yields ExtractDescending's order.
  static bool Better(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.value < b.value;
  }

 private:
  /// std::push_heap comparator ("less"): the worst entry becomes the
  /// heap top.
  static bool WorstLast(const Entry& a, const Entry& b) {
    return Better(a, b);
  }

  size_t capacity_ = 0;
  std::vector<Entry> heap_;
};

}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_BOUNDED_HEAP_H_
