#include "store/query_plan.h"

namespace optselect {
namespace store {

bool QueryPlan::CompatibleWith(size_t num_candidates,
                               double threshold) const {
  return num_candidates_requested == num_candidates &&
         threshold_c == threshold;
}

bool QueryPlan::SizesConsistent() const {
  const size_t n = docs.size();
  const size_t m = probability.size();
  if (relevance.size() != n || weighted.size() != n ||
      spec_order.size() != m || utilities.size() != n * m) {
    return false;
  }
  // spec_order must be a permutation of [0, m): this is the only gate
  // between untrusted file bytes and the pointer arithmetic of the
  // serving hot path (StreamingTopK::Begin and its pushes index
  // probability/utilities with these values unchecked).
  std::vector<bool> seen(m, false);
  for (uint32_t j : spec_order) {
    if (j >= m || seen[j]) return false;
    seen[j] = true;
  }
  return true;
}

core::DiversificationView QueryPlan::View() const {
  core::DiversificationView view;
  view.num_candidates = docs.size();
  view.num_specializations = probability.size();
  view.relevance = relevance.data();
  view.probability = probability.data();
  view.utilities = utilities.data();
  view.weighted = weighted.data();
  view.spec_order = spec_order.data();
  return view;
}

}  // namespace store
}  // namespace optselect
