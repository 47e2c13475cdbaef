// Algorithm 2's heap set, maintained incrementally — the one OptSelect
// selection engine.
//
// OptSelect fills the bounded heaps M (capacity k) and M_q′ (capacity
// ⌊k·P(q′|q)⌋+1, only candidates useful for q′) in one pass over R_q,
// drains a ⌊k·P(q′|q)⌋ quota from each M_q′ and fills the rest from M.
// StreamingTopK is that procedure as a stream: Begin sizes the heaps,
// each candidate is pushed as it arrives, Finalize drains. Every
// OptSelect path runs on it — OptSelectDiversifier over a view's
// candidates (compiled plan blocks or a materialized matrix),
// ParallelOptSelectDiversifier with one stream per shard combined by
// MergeFrom, and the serving cold path straight off the index scan,
// where materializing a candidate (snippet extraction plus O(m·|R_q′|)
// cosine sums) is the real cost. Two additions in the spirit of the
// incremental algorithms of Qin et al., "Diversifying Top-K Results"
// (div-astar / div-dp):
//
//   1. A sound pruning bound. Ũ(d|R_q′) ∈ [0,1] (Definition 2), so
//
//        Ũ(d|q) = (1−λ)·m·P(d|q) + λ·Σ_j P(q′_j|q)·Ũ(d|R_q′_j)
//               ≤ (1−λ)·m·P(d|q) + λ·Σ_j P(q′_j|q)  =:  UB(d)
//
//      depends only on the candidate's relevance — known *before* its
//      surrogate is extracted or its utility row computed. Once every
//      heap is full, a candidate with UB strictly below every heap's
//      minimum retained key provably cannot displace anything (the
//      heaps' tie-break is key-then-index, and UB < min beats any tie),
//      so the scan skips it entirely. Because index scans deliver
//      candidates in descending relevance order, the bound turns
//      monotone and the tail of R_q is skipped wholesale.
//
//   2. Capacity reserve for incremental extension. Begin(max_k) sizes
//      the heaps for max_k; Finalize(k) then returns exactly the
//      selection a stream begun at k would, for any k ≤ max_k, and is
//      non-destructive — a pager's Extend(k → k+Δ) is just a second
//      Finalize on the retained state, with zero new candidate
//      materializations (pushed() does not move).
//
// Why Finalize(k) on a max_k reserve equals a fresh run at k:
// BoundedTopK's retained set is a pure function of the push multiset
// under the total order (key desc, index asc). A capacity-c₂ heap with
// c₂ ≥ c₁ retains a superset of the capacity-c₁ heap whose sorted
// prefix of length min(size, c₁) is exactly the c₁ heap's sorted
// content. Finalize(k) drains only those prefixes: per-specialization
// at most want = max(⌊k·P⌋, 1) ≤ ⌊k·P⌋+1 entries, global at most k —
// so every entry it visits, in the order it visits them, is the one a
// capacity-k heap set would yield. Pruned candidates were provably
// rejected by every heap, so skipping them changes nothing. The same
// order-independence makes MergeFrom exact: the union of per-shard
// retained sets, re-pushed, keeps what one serial scan would have kept.

#ifndef OPTSELECT_CORE_STREAMING_SELECT_H_
#define OPTSELECT_CORE_STREAMING_SELECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bounded_heap.h"

namespace optselect {
namespace core {

struct DiversificationView;

/// Incremental bounded-state maintenance of Algorithm 2's heap set.
/// One instance per worker thread (SelectScratch carries one); Begin
/// resets it for a new problem while keeping every backing allocation,
/// and Finalize draws its working memory from buffers the stream keeps,
/// so steady-state requests allocate nothing.
class StreamingTopK {
 public:
  /// Starts a new problem instance: `probability` has one P(q′|q) per
  /// specialization (original index order, length m). Heaps are sized
  /// for Finalize at any k ≤ max_k: global capacity max_k, one heap of
  /// capacity ⌊max_k·P⌋+1 for each of the min(m, max_k) most probable
  /// specializations (SortSpecOrderByProbability order). `spec_order`,
  /// when given, is that order already sorted (a compiled plan's block
  /// of m indices), and Begin skips the sort.
  void Begin(const double* probability, size_t num_specializations,
             size_t max_k, double lambda,
             const uint32_t* spec_order = nullptr);

  /// Upper bound UB(d) on the overall utility of a candidate with this
  /// relevance (header doc). Sound whenever utilities are normalized to
  /// [0,1] — true for every Ũ this library computes (Definition 2).
  double UpperBound(double relevance) const {
    return (1.0 - lambda_) * static_cast<double>(num_specializations_) *
               relevance +
           lambda_ * prob_sum_;
  }

  /// True when a candidate with this relevance provably cannot be
  /// retained by any heap: all heaps are full and UB(d) is *strictly*
  /// below each one's minimum key (strictness makes ties safe — an
  /// equal key could still displace a higher-index entry). Skipping
  /// such a candidate leaves every heap bit-identical to pushing it.
  bool CanPrune(double relevance) const;

  /// Offers candidate `index` with its thresholded utility row (length
  /// m, original specialization order). Computes the Eq. 9 overall
  /// utility with the dispatched kernel's blocked row sum — the order
  /// the plan compiler's weighted block uses — and returns it.
  double Push(size_t index, double relevance, const double* utility_row);

  /// Same, with the weighted sum Σ_j P_j·Ũ_ij precomputed (compiled
  /// plan blocks carry it); the row is still needed for the per-
  /// specialization usefulness tests.
  double PushWeighted(size_t index, double relevance, double weighted,
                      const double* utility_row);

  /// Offers candidates [begin, end) of `view` in index order: Skip
  /// when CanPrune holds, otherwise PushWeighted when the view carries
  /// a weighted block and Push when it does not.
  void PushRange(const DiversificationView& view, size_t begin,
                 size_t end);

  /// Records a candidate that was offered but pruned, keeping the
  /// effective-k clamp in Finalize (k ≤ candidates offered) correct.
  void Skip() {
    ++offered_;
    ++pruned_;
  }

  /// Folds `other`'s retained entries and counts into this stream, as
  /// if its candidates had been offered here. Both streams must have
  /// been begun with the same arguments; `other` is left unchanged.
  /// The parallel scan's shard combine.
  void MergeFrom(const StreamingTopK& other);

  /// Drains the retained state into `*out` (cleared first): quota
  /// drain over the min(m, k) most probable specializations, global
  /// fill, final order by overall utility (ties: candidate index).
  /// Non-destructive and callable repeatedly — the heaps are left as
  /// they were, so Extend(k → k+Δ) is Finalize(k+Δ) on the same state.
  /// Requires k ≤ max_k (clamped).
  void Finalize(size_t k, std::vector<size_t>* out);

  /// Candidates offered so far (Push* + Skip).
  size_t offered() const { return offered_; }
  /// Candidates actually materialized into the heaps. Finalize never
  /// moves this — the bench's no-recompute assertion for Extend.
  size_t pushed() const { return pushed_; }
  /// Candidates skipped by the pruning bound.
  size_t pruned() const { return pruned_; }
  size_t max_k() const { return max_k_; }

  /// Entries currently held across all heaps.
  size_t retained() const;
  /// The configured cap: max_k + Σ_j (⌊max_k·P_j⌋ + 1) over retained
  /// specializations. retained() ≤ retained_bound() is the bounded-
  /// state invariant, independent of how many candidates streamed by.
  size_t retained_bound() const;

 private:
  using Entry = BoundedTopK<size_t>::Entry;

  /// One retained specialization: original index, probability, and its
  /// bounded heap M_q′.
  struct SpecSlot {
    size_t spec = 0;
    double prob = 0.0;
    BoundedTopK<size_t> heap;
  };

  /// Copies `heap`'s entries into sorted_ best-first, truncated to
  /// `limit`.
  void SortPrefix(const BoundedTopK<size_t>& heap, size_t limit);
  /// Appends the candidate to selected_ unless it is already taken.
  void Take(const Entry& entry);

  double lambda_ = 0.0;
  size_t num_specializations_ = 0;
  size_t max_k_ = 0;
  double prob_sum_ = 0.0;

  /// [m] probabilities, copied so the caller's buffer can die after
  /// Begin (the stream outlives per-request store reads).
  std::vector<double> probability_;
  /// Retained specializations, probability-descending; only the first
  /// `retained_specs_` slots are live (grow-only, to keep heap
  /// allocations across requests).
  std::vector<SpecSlot> slots_;
  size_t retained_specs_ = 0;
  /// The global heap M, capacity max_k.
  BoundedTopK<size_t> global_;

  size_t offered_ = 0;
  size_t pushed_ = 0;
  size_t pruned_ = 0;
  /// One past the largest pushed candidate index: the size taken_
  /// needs to cover every index a heap can hold.
  size_t index_limit_ = 0;

  /// Begin's specialization order before it fills the slots.
  std::vector<size_t> order_;
  /// Finalize's reused working memory: the sorted copy of the heap
  /// being drained, the selection as (overall, index) entries, and a
  /// taken bitmap over candidate indices that Finalize leaves all-zero.
  std::vector<Entry> sorted_;
  std::vector<Entry> selected_;
  std::vector<char> taken_;
};

}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_STREAMING_SELECT_H_
