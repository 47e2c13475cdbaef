// Runtime-dispatched compute kernels for the selection hot loops.
//
// The paper argues OptSelect's scan structure is data-parallel (their
// demonstration is on GPUs); this layer finishes that thought on CPU.
// One loop is dispatched: the weighted utility row sum Σ_j P_j·Ũ_ij
// (the λ-independent half of Eq. 9) that the plan compiler bakes into
// each plan's weighted block and StreamingTopK::Push computes for
// plan-less candidates. It has a scalar reference implementation and
// optional AVX2/NEON variants selected ONCE at startup; the Eq. 9
// combine on top of it is the one inline CombineOverall below. The
// sparse dot products between a candidate surrogate and a
// specialization's stored surrogates (the cold path's utility rows)
// are gather loops whose adds must stay in ascending term order, so
// they have one undispatched, branch-free form (a masked product per
// term, see GatherDot); they live here so they share the kernels'
// rounding rules.
//
// Determinism contract: every variant produces bit-identical doubles to
// the scalar reference, run-to-run and across lane widths. Two rules
// make that possible:
//
//   1. Reductions use a FIXED-ORDER BLOCKED accumulation, not the
//      sequential order: the weighted row sum accumulates stripe
//      acc[j mod 4] += p[j]·u[j] (j ascending) and combines as
//      (acc0+acc1)+(acc2+acc3). A 4-lane vector unit computes exactly
//      this; the scalar reference computes exactly this; a 2-lane NEON
//      unit carries stripes {0,1} and {2,3} in two registers and
//      combines in the same tree. The blocked order is the canonical
//      definition — the plan compiler, the serve-time fallback scan and
//      every SIMD variant all produce the same bits.
//   2. Sparse dot products accumulate matched terms in ascending term
//      order — identical to TermVector::Dot's linear merge. The gather
//      form reaches the same products in the same order by walking one
//      side's ascending terms against a dense scatter of the other.
//
// All kernel translation units compile with -ffp-contract=off and use
// explicit mul+add (never FMA) so contraction cannot change rounding.
//
// Dispatch: Active() resolves once (thread-safe local static) from CPU
// features, overridable via OPTSELECT_KERNELS=scalar|avx2|neon|auto for
// testing. Requesting an unavailable target warns once and falls back
// to scalar.

#ifndef OPTSELECT_CORE_KERNELS_KERNELS_H_
#define OPTSELECT_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "text/term_vector.h"

namespace optselect {
namespace core {
namespace kernels {

/// One dispatch target: a named table of kernel entry points. All
/// function pointers are always non-null.
struct Ops {
  const char* name;

  /// Σ_j prob[j]·row[j] in the canonical blocked order (see file
  /// comment): acc[j mod 4] += prob[j]·row[j], result
  /// (acc0+acc1)+(acc2+acc3).
  double (*weighted_row_sum)(const double* row, const double* prob,
                             size_t m);
};

/// The scalar reference table (always available; the oracle every other
/// target is asserted against).
const Ops& Scalar();

/// The dispatched table: resolved once on first use from CPU features
/// and the OPTSELECT_KERNELS override, then immutable.
const Ops& Active();

/// Name of the active target ("scalar", "avx2", "neon") for logs and
/// bench metadata.
const char* ActiveName();

namespace internal {
/// Arch-specific tables; null when the build target or the running CPU
/// lacks the feature. Defined in kernels_avx2.cc / kernels_neon.cc
/// (each compiles to a null-returning stub off-architecture).
const Ops* Avx2OrNull();
const Ops* NeonOrNull();
}  // namespace internal

/// The Eq. 9 combine for one candidate:
///   (1−λ)·m_scale·relevance + λ·weighted
/// evaluated left-to-right. The one definition every overall-utility
/// evaluation uses (StreamingTopK's pushes, the reference
/// OptSelectDiversifier::OverallUtility), so the expression tree is
/// identical everywhere. (Plain f64 mul/add cannot be FMA-contracted on
/// targets without FMA codegen, and kernel TUs additionally force
/// -ffp-contract=off.)
inline double CombineOverall(double relevance, double weighted,
                             double lambda, double m_scale) {
  return (1.0 - lambda) * m_scale * relevance + lambda * weighted;
}

/// Convenience single-call wrappers through the dispatched table.
inline double WeightedRowSum(const double* row, const double* prob,
                             size_t m) {
  return Active().weighted_row_sum(row, prob, m);
}

/// Sparse dot of a dense scatter against one surrogate's (term,
/// weight) pairs: Σ dense[t]·w over the pairs, in their order, whose
/// term t is below `dense_size` and whose dense[t] is non-zero. With
/// `dense` holding a TermVector's weights at their term ids and zero
/// elsewhere (TermVector weights are never zero) and the pairs
/// strictly ascending, the products added are exactly
/// TermVector::Dot's matched products, in its order and with its
/// operand order — so the two are bit-identical. A pair whose dense[t]
/// is zero is not skipped by a branch: its product is masked to
/// exactly +0.0 by a compare-and-AND and added, so the loop has no
/// branch on the gathered value to mispredict. That leaves the sum's
/// bits unchanged for every input: the sum starts at +0.0 and is never
/// −0.0 (a round-to-nearest sum is −0.0 only when both addends are),
/// and x + (+0.0) is x for every other x, infinities and NaN included.
/// The mask also keeps the product of a zero and a non-finite weight
/// (0·inf is NaN) out of the sum, as the skip did. The walk stops at
/// the first term past the scatter: no term id drives a read past
/// dense[dense_size - 1].
double GatherDot(const double* dense, size_t dense_size,
                 const text::TermVector::Entry* pairs, size_t count);

/// GatherDot over SoA term and weight columns (a mapped store-v4
/// surrogate).
double GatherDot(const double* dense, size_t dense_size,
                 const uint32_t* terms, const double* weights,
                 size_t count);

}  // namespace kernels
}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_KERNELS_KERNELS_H_
