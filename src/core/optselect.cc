#include "core/optselect.h"

#include <algorithm>

#include "core/kernels/kernels.h"

namespace optselect {
namespace core {

double OptSelectDiversifier::OverallUtility(
    const DiversificationInput& input, const UtilityMatrix& utilities,
    size_t i, double lambda) {
  // Gather the AoS probabilities, then evaluate through the same kernel
  // path every serving scan uses — this function is the reference
  // oracle of the differential tests, so it must share the canonical
  // blocked accumulation order bit for bit.
  const size_t m = input.specializations.size();
  double probs_stack[16];
  std::vector<double> probs_heap;
  double* probs = probs_stack;
  if (m > 16) {
    probs_heap.resize(m);
    probs = probs_heap.data();
  }
  for (size_t j = 0; j < m; ++j) {
    probs[j] = input.specializations[j].probability;
  }
  double weighted = utilities.WeightedRowSum(i, probs);
  return kernels::CombineOverall(input.candidates[i].relevance, weighted,
                                 lambda, static_cast<double>(m));
}

void OptSelectDiversifier::SelectInto(const DiversificationView& view,
                                      const DiversifyParams& params,
                                      SelectScratch* scratch,
                                      std::vector<size_t>* out) const {
  out->clear();
  const size_t n = view.num_candidates;
  const size_t k = std::min(params.k, n);
  if (k == 0) return;

  StreamingTopK& stream = scratch->stream;
  stream.Begin(view.probability, view.num_specializations, k,
               params.lambda, view.spec_order);
  stream.PushRange(view, 0, n);
  stream.Finalize(k, out);
}

}  // namespace core
}  // namespace optselect
