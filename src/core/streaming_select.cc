#include "core/streaming_select.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/kernels/kernels.h"
#include "core/select_view.h"

namespace optselect {
namespace core {

void StreamingTopK::Begin(const double* probability,
                          size_t num_specializations, size_t max_k,
                          double lambda, const uint32_t* spec_order) {
  const size_t m = num_specializations;
  lambda_ = lambda;
  num_specializations_ = m;
  max_k_ = max_k;
  offered_ = 0;
  pushed_ = 0;
  pruned_ = 0;
  index_limit_ = 0;

  // Σ_j P_j in the kernels' blocked order: every p_j·u_j with u_j ≤ 1
  // rounds to at most p_j, and rounded adds and multiplies are
  // monotone, so UpperBound dominates the overall utility Push
  // computes bit for bit, not just in exact arithmetic.
  probability_.assign(probability, probability + m);
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t j = 0; j < m; ++j) acc[j & 3] += probability_[j];
  prob_sum_ = (acc[0] + acc[1]) + (acc[2] + acc[3]);

  // "the k most probable specializations" generalized to the max_k
  // reserve: Finalize(k) later uses the first min(m, k) of this order,
  // which is exactly sort-then-truncate at k (the order is a prefix-
  // stable total order shared with the plan compiler).
  if (spec_order == nullptr) {
    order_.resize(m);
    std::iota(order_.begin(), order_.end(), size_t{0});
    SortSpecOrderByProbability(probability_.data(), &order_);
  }
  retained_specs_ = std::min(m, max_k);
  if (slots_.size() < retained_specs_) slots_.resize(retained_specs_);
  for (size_t jj = 0; jj < retained_specs_; ++jj) {
    SpecSlot& slot = slots_[jj];
    slot.spec = spec_order != nullptr ? spec_order[jj] : order_[jj];
    slot.prob = probability_[slot.spec];
    // Capacity ⌊max_k·P⌋+1 ≥ ⌊k·P⌋+1 for every k ≤ max_k: the sorted
    // prefix this heap retains covers every smaller-k drain exactly.
    slot.heap.Reset(static_cast<size_t>(std::floor(
                        static_cast<double>(max_k) * slot.prob)) +
                    1);
  }
  global_.Reset(max_k);
}

bool StreamingTopK::CanPrune(double relevance) const {
  if (global_.capacity() == 0) return true;  // k == 0: nothing retained
  if (global_.size() < global_.capacity()) return false;
  const double ub = UpperBound(relevance);
  if (!(ub < global_.min_key())) return false;
  for (size_t jj = 0; jj < retained_specs_; ++jj) {
    const BoundedTopK<size_t>& heap = slots_[jj].heap;
    if (heap.size() < heap.capacity()) return false;
    if (!(ub < heap.min_key())) return false;
  }
  return true;
}

double StreamingTopK::Push(size_t index, double relevance,
                           const double* utility_row) {
  // The dispatched kernel's blocked accumulation — the exact FP order
  // of the plan compiler's weighted block.
  double weighted = kernels::WeightedRowSum(
      utility_row, probability_.data(), num_specializations_);
  return PushWeighted(index, relevance, weighted, utility_row);
}

double StreamingTopK::PushWeighted(size_t index, double relevance,
                                   double weighted,
                                   const double* utility_row) {
  const double overall = kernels::CombineOverall(
      relevance, weighted, lambda_,
      static_cast<double>(num_specializations_));
  ++offered_;
  ++pushed_;
  index_limit_ = std::max(index_limit_, index + 1);
  global_.Push(overall, index);
  for (size_t jj = 0; jj < retained_specs_; ++jj) {
    if (utility_row[slots_[jj].spec] > 0.0) {
      slots_[jj].heap.Push(overall, index);
    }
  }
  return overall;
}

void StreamingTopK::PushRange(const DiversificationView& view,
                              size_t begin, size_t end) {
  const size_t m = view.num_specializations;
  for (size_t i = begin; i < end; ++i) {
    const double relevance = view.relevance[i];
    if (CanPrune(relevance)) {
      Skip();
      continue;
    }
    const double* row = view.utilities + i * m;
    if (view.weighted != nullptr) {
      PushWeighted(i, relevance, view.weighted[i], row);
    } else {
      Push(i, relevance, row);
    }
  }
}

void StreamingTopK::MergeFrom(const StreamingTopK& other) {
  for (const Entry& entry : other.global_.entries()) {
    global_.Push(entry.key, entry.value);
  }
  for (size_t jj = 0; jj < retained_specs_; ++jj) {
    for (const Entry& entry : other.slots_[jj].heap.entries()) {
      slots_[jj].heap.Push(entry.key, entry.value);
    }
  }
  offered_ += other.offered_;
  pushed_ += other.pushed_;
  pruned_ += other.pruned_;
  index_limit_ = std::max(index_limit_, other.index_limit_);
}

size_t StreamingTopK::retained() const {
  size_t total = global_.size();
  for (size_t jj = 0; jj < retained_specs_; ++jj) {
    total += slots_[jj].heap.size();
  }
  return total;
}

size_t StreamingTopK::retained_bound() const {
  size_t total = max_k_;
  for (size_t jj = 0; jj < retained_specs_; ++jj) {
    total += slots_[jj].heap.capacity();
  }
  return total;
}

void StreamingTopK::SortPrefix(const BoundedTopK<size_t>& heap,
                               size_t limit) {
  // Sorting a copy keeps the live heap intact — what makes Extend a
  // second Finalize instead of a recompute.
  sorted_.assign(heap.entries().begin(), heap.entries().end());
  if (sorted_.size() > limit) {
    std::partial_sort(sorted_.begin(), sorted_.begin() + limit,
                      sorted_.end(), BoundedTopK<size_t>::Better);
    sorted_.resize(limit);
  } else {
    std::sort(sorted_.begin(), sorted_.end(), BoundedTopK<size_t>::Better);
  }
}

void StreamingTopK::Take(const Entry& entry) {
  if (taken_[entry.value]) return;
  taken_[entry.value] = 1;
  selected_.push_back(entry);
}

void StreamingTopK::Finalize(size_t k, std::vector<size_t>* out) {
  out->clear();
  // Clamp k to n = |R_q|: offered_ counts every candidate the scan saw,
  // pruned ones included.
  k = std::min({k, offered_, max_k_});
  if (k == 0) return;
  if (taken_.size() < index_limit_) taken_.resize(index_limit_, 0);
  selected_.clear();

  // Per-specialization quota drain, most probable specialization first
  // (Algorithm 2 lines 07-09 generalized to the ⌊k·P⌋ coverage
  // constraint — the printed pseudocode pops one element per
  // specialization; we pop up to the quota, and at least one). The
  // prefix truncation to ⌊k·P⌋+1 reproduces the capacity a fresh run
  // at k would have given this heap.
  const size_t spec_count = std::min(retained_specs_, k);
  for (size_t jj = 0; jj < spec_count && selected_.size() < k; ++jj) {
    const SpecSlot& slot = slots_[jj];
    const size_t quota = static_cast<size_t>(
        std::floor(static_cast<double>(k) * slot.prob));
    const size_t want = std::max<size_t>(quota, 1);
    SortPrefix(slot.heap, quota + 1);
    size_t got = 0;
    for (const Entry& entry : sorted_) {
      if (got >= want || selected_.size() >= k) break;
      // A document useful for several specializations counts for each
      // of them: an already taken one consumes this quota without being
      // re-added.
      Take(entry);
      ++got;
    }
  }

  // Fill the remainder from the global heap (Algorithm 2 lines 10-12):
  // the capacity-max_k heap's sorted top-k prefix is exactly a fresh
  // capacity-k heap's content.
  SortPrefix(global_, k);
  for (const Entry& entry : sorted_) {
    if (selected_.size() >= k) break;
    Take(entry);
  }

  // SERP order: overall utility descending, ties by candidate index.
  // Clearing the taken bits on the way out leaves the bitmap all-zero
  // for the next Finalize without an O(n) reset.
  std::sort(selected_.begin(), selected_.end(), BoundedTopK<size_t>::Better);
  out->reserve(selected_.size());
  for (const Entry& entry : selected_) {
    out->push_back(entry.value);
    taken_[entry.value] = 0;
  }
}

}  // namespace core
}  // namespace optselect
