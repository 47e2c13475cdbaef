// Results' utility (Definition 2) and its normalized, thresholded form.
//
//   U(d|R_q′)  = Σ_{d′ ∈ R_q′} (1 − δ(d, d′)) / rank(d′, R_q′)
//   Ũ(d|R_q′)  = U(d|R_q′) / H_{|R_q′|}            ∈ [0, 1]
//
// with δ(d₁, d₂) = 1 − cosine(d₁, d₂) (Equation 2). The evaluation in
// Section 5 additionally forces Ũ to 0 when it falls below a threshold c;
// the threshold is applied here so every algorithm sees the same utility.

#ifndef OPTSELECT_CORE_UTILITY_H_
#define OPTSELECT_CORE_UTILITY_H_

#include <cstddef>
#include <vector>

#include "core/candidate.h"

namespace optselect {
namespace core {

/// Dense n×m matrix of Ũ(d_i | R_{q′_j}) values.
class UtilityMatrix {
 public:
  UtilityMatrix() = default;
  UtilityMatrix(size_t n_candidates, size_t n_specializations)
      : n_(n_candidates),
        m_(n_specializations),
        values_(n_candidates * n_specializations, 0.0) {}

  double At(size_t candidate, size_t specialization) const {
    return values_[candidate * m_ + specialization];
  }
  void Set(size_t candidate, size_t specialization, double v) {
    values_[candidate * m_ + specialization] = v;
  }

  size_t num_candidates() const { return n_; }
  size_t num_specializations() const { return m_; }

  /// Raw row-major [candidate][specialization] storage — the span a
  /// zero-copy DiversificationView points at.
  const double* data() const { return values_.data(); }

  /// Row view helper: sum over specializations of P(q′|q)·Ũ(d|R_q′),
  /// evaluated by the dispatched kernel's canonical blocked reduction
  /// (core/kernels). Takes a raw pointer so plan- and mmap-backed
  /// probability columns feed it without a vector copy; `probs` must
  /// have at least num_specializations() elements.
  double WeightedRowSum(size_t candidate, const double* probs) const;

  /// Forces every value below `c` to 0 in place, allocation-free.
  /// Thresholding is idempotent and monotone in c (re-applying a larger
  /// cutoff to an already-thresholded matrix equals thresholding the
  /// original), so ascending sweeps can reuse one working copy.
  void ThresholdInPlace(double c);

 private:
  size_t n_ = 0;
  size_t m_ = 0;
  std::vector<double> values_;  // row-major [candidate][specialization]
};

/// Computes utilities from surrogate vectors.
class UtilityComputer {
 public:
  struct Options {
    /// The threshold c of Section 5: Ũ values below c are forced to 0.
    double threshold_c = 0.0;
  };

  UtilityComputer() : UtilityComputer(Options{}) {}
  explicit UtilityComputer(Options options) : options_(options) {}

  /// Raw U(d|R_q′) for one document surrogate against one result list.
  static double RawUtility(const text::TermVector& doc,
                           const std::vector<text::TermVector>& rq_prime);

  /// Normalized Ũ = U / H_{|R_q′|}, thresholded at c.
  double NormalizedUtility(
      const text::TermVector& doc,
      const std::vector<text::TermVector>& rq_prime) const;

  /// Full matrix for a problem instance: O(n · m · |R_q′|) cosines.
  UtilityMatrix Compute(const DiversificationInput& input) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_UTILITY_H_
