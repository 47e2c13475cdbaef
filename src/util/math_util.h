// Numeric helpers: harmonic numbers, the log2 rank discount, means.

#ifndef OPTSELECT_UTIL_MATH_UTIL_H_
#define OPTSELECT_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <vector>

namespace optselect {
namespace util {

/// H_n = sum_{i=1..n} 1/i; H_0 = 0. The paper uses H_{|R_q'|} as the
/// normalization constant of the utility function (Definition 2).
double HarmonicNumber(size_t n);

/// log2(1 + rank) discount used by nDCG-family metrics.
double Log2Discount(size_t rank_one_based);

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

}  // namespace util
}  // namespace optselect

#endif  // OPTSELECT_UTIL_MATH_UTIL_H_
