#include "util/math_util.h"

#include <cmath>

namespace optselect {
namespace util {

double HarmonicNumber(size_t n) {
  double h = 0.0;
  for (size_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

double Log2Discount(size_t rank_one_based) {
  return std::log2(1.0 + static_cast<double>(rank_one_based));
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

}  // namespace util
}  // namespace optselect
