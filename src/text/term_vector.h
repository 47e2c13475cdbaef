// Sparse term-frequency vectors and the cosine distance of Equation (2):
//   δ(d1, d2) = 1 − cosine(d1, d2).
//
// The diversification utility (Definition 2) evaluates δ between document
// *surrogates* (snippets), so these vectors are small; the representation
// is a sorted (term_id, weight) array with linear-merge dot products.

#ifndef OPTSELECT_TEXT_TERM_VECTOR_H_
#define OPTSELECT_TEXT_TERM_VECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "text/vocabulary.h"

namespace optselect {
namespace text {

/// Non-owning SoA view of a sparse term vector: parallel term-id and
/// weight columns (sorted by term id, ids unique, weights non-zero)
/// plus the precomputed L2 norm. This is the shape a mapped store-v4
/// surrogate column has on disk; kernels consume it directly so mapped
/// serving never rebuilds heap TermVectors. The norm is stored, not
/// recomputed — it carries the exact bits TermVector::RecomputeNorm
/// produced at build time.
struct TermVectorSpan {
  const TermId* terms = nullptr;
  const double* weights = nullptr;
  uint32_t size = 0;
  double norm = 0.0;
};

/// Immutable-after-build sparse vector over TermId with double weights.
class TermVector {
 public:
  using Entry = std::pair<TermId, double>;

  TermVector() = default;

  /// Builds from unsorted (possibly duplicated) entries: duplicates are
  /// summed, zero weights dropped, result sorted by term id.
  static TermVector FromEntries(std::vector<Entry> entries);

  /// Builds from entries already in FromEntries' output shape (ids
  /// strictly ascending, weights non-zero): the vector keeps
  /// `entries`' buffer as is and only computes the norm, in the order
  /// FromEntries computes it.
  static TermVector FromSortedEntries(std::vector<Entry> entries);

  /// Builds a raw term-frequency vector from a token-id sequence.
  static TermVector FromTermIds(const std::vector<TermId>& ids);

  /// Number of non-zero entries.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<Entry>& entries() const { return entries_; }

  /// L2 norm (cached at build time).
  double norm() const { return norm_; }

  /// Dot product via linear merge of the two sorted entry lists.
  double Dot(const TermVector& other) const;

  /// cosine(this, other) ∈ [0, 1] for non-negative weights; 0 when either
  /// vector is empty.
  double Cosine(const TermVector& other) const;

  /// δ(this, other) = 1 − cosine (Equation 2). Symmetric; 0 iff equal
  /// directions.
  double CosineDistance(const TermVector& other) const {
    return 1.0 - Cosine(other);
  }

  /// Weight of a term, 0 if absent. O(log n).
  double WeightOf(TermId id) const;

 private:
  void RecomputeNorm();

  std::vector<Entry> entries_;  // sorted by TermId, weights > 0 typical
  double norm_ = 0.0;
};

}  // namespace text
}  // namespace optselect

#endif  // OPTSELECT_TEXT_TERM_VECTOR_H_
