// OptSelect — Algorithm 2, solving MaxUtility Diversify(k) (Section 3.1.3).
//
// The objective (Eq. 7) is additive over selected documents:
//   Ũ(S|q) = Σ_{d∈S} Ũ(d|q),
//   Ũ(d|q) = Σ_{q′∈S_q} (1−λ)·P(d|q) + λ·P(q′|q)·Ũ(d|R_q′)
//          = (1−λ)·|S_q|·P(d|q) + λ·Σ_{q′} P(q′|q)·Ũ(d|R_q′),
// subject to proportional coverage: |R_q ⋈ q′| ≥ ⌊k·P(q′|q)⌋ where
// R_q ⋈ q′ = {d ∈ S : U(d|R_q′) > 0}.
//
// One pass pushes every candidate into the per-specialization bounded
// heaps M_q′ (capacity ⌊k·P(q′|q)⌋+1, only candidates useful for q′) and
// into the global heap M (capacity k), all keyed by the overall utility
// Ũ(d|q). Selection then drains each M_q′ up to its quota — the printed
// pseudocode pops a single element per specialization; we pop up to
// ⌊k·P(q′|q)⌋ (and at least one) to honor the coverage constraint stated
// in the problem definition — and fills the remainder of S from M. The
// heap set is core::StreamingTopK (core/streaming_select.h), kept in the
// caller's SelectScratch; its relevance bound skips candidates that can
// no longer enter any heap.
//
// Cost: n·|S_q| bounded-heap pushes of log₂k each ⇒ O(n·|S_q|·log₂k);
// with |S_q| constant, O(n·log₂k) (Table 1).

#ifndef OPTSELECT_CORE_OPTSELECT_H_
#define OPTSELECT_CORE_OPTSELECT_H_

#include <string>
#include <vector>

#include "core/diversifier.h"

namespace optselect {
namespace core {

/// The paper's algorithm. Deterministic: ties break on candidate rank.
class OptSelectDiversifier : public Diversifier {
 public:
  std::string name() const override { return "OptSelect"; }

  void SelectInto(const DiversificationView& view,
                  const DiversifyParams& params, SelectScratch* scratch,
                  std::vector<size_t>* out) const override;

  /// The overall per-document utility Ũ(d|q) of Eq. 9 for candidate i.
  /// Exposed for tests and for the Figure 1 utility-ratio experiment.
  static double OverallUtility(const DiversificationInput& input,
                               const UtilityMatrix& utilities, size_t i,
                               double lambda);
};

}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_OPTSELECT_H_
