#include "core/utility.h"

#include "core/kernels/kernels.h"
#include "util/math_util.h"

namespace optselect {
namespace core {

double UtilityMatrix::WeightedRowSum(size_t candidate,
                                     const double* probs) const {
  return kernels::WeightedRowSum(values_.data() + candidate * m_, probs,
                                 m_);
}

void UtilityMatrix::ThresholdInPlace(double c) {
  for (double& v : values_) {
    if (v < c) v = 0.0;
  }
}

double UtilityComputer::RawUtility(
    const text::TermVector& doc,
    const std::vector<text::TermVector>& rq_prime) {
  double u = 0.0;
  for (size_t r = 0; r < rq_prime.size(); ++r) {
    // (1 − δ(d, d′)) = cosine(d, d′); rank is 1-based.
    u += doc.Cosine(rq_prime[r]) / static_cast<double>(r + 1);
  }
  return u;
}

double UtilityComputer::NormalizedUtility(
    const text::TermVector& doc,
    const std::vector<text::TermVector>& rq_prime) const {
  if (rq_prime.empty()) return 0.0;
  double u = RawUtility(doc, rq_prime) /
             util::HarmonicNumber(rq_prime.size());
  if (u < options_.threshold_c) u = 0.0;
  return u;
}

UtilityMatrix UtilityComputer::Compute(
    const DiversificationInput& input) const {
  const size_t n = input.candidates.size();
  const size_t m = input.specializations.size();
  UtilityMatrix matrix(n, m);
  // Precompute the normalization constants once per specialization.
  std::vector<double> inv_harmonic(m, 0.0);
  for (size_t j = 0; j < m; ++j) {
    size_t len = input.specializations[j].results.size();
    inv_harmonic[j] = len == 0 ? 0.0 : 1.0 / util::HarmonicNumber(len);
  }
  for (size_t i = 0; i < n; ++i) {
    const text::TermVector& doc = input.candidates[i].vector;
    for (size_t j = 0; j < m; ++j) {
      double u =
          RawUtility(doc, input.specializations[j].results) * inv_harmonic[j];
      if (u < options_.threshold_c) u = 0.0;
      matrix.Set(i, j, u);
    }
  }
  return matrix;
}

}  // namespace core
}  // namespace optselect
