// Zero-copy selection inputs and per-worker scratch.
//
// The diversification algorithms never need to *own* a problem instance:
// selection reads candidate relevances, specialization probabilities and
// the (already thresholded) utility matrix, all of which either live in a
// DiversificationInput + UtilityMatrix (the offline/experiment path) or
// in a store-compiled QueryPlan's flat blocks (the serving path). A
// DiversificationView is a non-owning bundle of spans over whichever
// backing storage is at hand; a SelectScratch is the reusable working
// memory (OptSelect's heap stream, taken-bitmap, per-candidate buffers)
// a worker thread keeps across requests so the hot path allocates
// nothing.

#ifndef OPTSELECT_CORE_SELECT_VIEW_H_
#define OPTSELECT_CORE_SELECT_VIEW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/candidate.h"
#include "core/streaming_select.h"

namespace optselect {
namespace core {

class UtilityMatrix;
class SelectScratch;

/// Non-owning view of one diversification problem instance. All spans
/// must stay valid for the duration of a SelectInto call; the view
/// itself is trivially copyable.
struct DiversificationView {
  size_t num_candidates = 0;      ///< n = |R_q|
  size_t num_specializations = 0; ///< m = |S_q|

  /// [n] normalized relevance P(d|q), candidate rank order.
  const double* relevance = nullptr;
  /// [m] specialization probabilities P(q′|q).
  const double* probability = nullptr;
  /// [n·m] row-major thresholded utilities Ũ(d_i|R_{q′_j}).
  const double* utilities = nullptr;
  /// Optional [n] precomputed Σ_j P(q′_j|q)·Ũ(d_i|R_{q′_j}) — the
  /// λ-independent half of Eq. 9, compiled into store-v3 query plans.
  /// When null, OptSelect computes it with an O(m) row scan.
  const double* weighted = nullptr;
  /// Optional [m] specialization indices sorted by probability
  /// descending (ties: index ascending) — compiled into query plans so
  /// selection skips the per-request sort. When null,
  /// StreamingTopK::Begin sorts.
  const uint32_t* spec_order = nullptr;
  /// Optional [n] candidate records; carries the surrogate term vectors
  /// that pairwise-distance algorithms (MMR) need. Null on the
  /// plan-compiled path, which stores no candidate vectors.
  const Candidate* candidates = nullptr;

  double UtilityAt(size_t candidate, size_t specialization) const {
    return utilities[candidate * num_specializations + specialization];
  }
};

/// Reusable working memory for SelectInto. One instance per worker
/// thread; safe to reuse across calls and across algorithms (each call
/// resets exactly the state it touches). Never shared concurrently.
class SelectScratch {
 public:
  /// Algorithm 2's heap set: OptSelect's one selection engine, also
  /// the serving cold path's stream.
  StreamingTopK stream;

  // --- shared per-candidate / per-specialization buffers -------------
  /// [n] max-similarity-to-selected (MMR).
  std::vector<double> overall;
  /// [n] selected-bitmap (xQuAD, IASelect, MMR, ranking assembly).
  std::vector<char> taken;
  /// [m] coverage products Π(1−Ũ) (xQuAD, IASelect).
  std::vector<double> coverage;

  // --- shim gather buffers (MakeView) ---------------------------------
  /// [n] relevances gathered out of DiversificationInput's AoS.
  std::vector<double> relevance;
  /// [m] probabilities gathered out of the specialization profiles.
  std::vector<double> probability;

  /// Caller-owned reusable output buffer — SelectInto writes into any
  /// vector; workers that want zero allocation pass this one.
  std::vector<size_t> picks;
};

/// Sorts specialization indices by probability descending, ties by
/// index ascending — Section 3.1.3's "k most probable" order. The one
/// comparator shared by the per-request sort and the store-time plan
/// compiler, so compiled spec_order blocks match serve-time sorts
/// exactly.
template <typename Index>
void SortSpecOrderByProbability(const double* probability,
                                std::vector<Index>* order) {
  std::sort(order->begin(), order->end(), [probability](Index a, Index b) {
    double pa = probability[a];
    double pb = probability[b];
    if (pa != pb) return pa > pb;
    return a < b;
  });
}

/// Builds a view over a DiversificationInput + UtilityMatrix pair,
/// gathering the AoS relevances/probabilities into `scratch`'s flat
/// buffers (the spans point into the scratch, so the scratch must
/// outlive the view). This is the legacy-shim path; compiled query
/// plans build their views directly over stored blocks with no copy.
DiversificationView MakeView(const DiversificationInput& input,
                             const UtilityMatrix& utilities,
                             SelectScratch* scratch);

}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_SELECT_VIEW_H_
