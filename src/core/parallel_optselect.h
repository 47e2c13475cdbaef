// Parallel OptSelect — the paper's future work (iii): "the study of a
// search architecture performing the diversification task in parallel
// with the document scoring phase".
//
// OptSelect's single pass over R_q is embarrassingly parallel: shard the
// candidates, fill one StreamingTopK per shard (per-specialization plus
// global bounded heaps), then fold the shards into one with MergeFrom —
// heap merging costs O(shards · (k + |S_q|·k) · log k), independent of
// n. Finalize over the merged heaps is the serial algorithm's, so the
// output is *bit-identical* to the serial OptSelect (ties break on
// candidate rank in both).
//
// In the architecture the paper sketches, each shard would live inside a
// posting-scoring worker and push into its heaps while scoring; this
// class reproduces that dataflow with std::thread over an in-memory
// utility matrix.

#ifndef OPTSELECT_CORE_PARALLEL_OPTSELECT_H_
#define OPTSELECT_CORE_PARALLEL_OPTSELECT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/diversifier.h"

namespace optselect {
namespace core {

/// Multi-threaded drop-in replacement for OptSelectDiversifier.
class ParallelOptSelectDiversifier : public Diversifier {
 public:
  /// `num_threads` = 0 picks util::AvailableCpus(). Inputs under 2048
  /// candidates, and every input at one thread, run OptSelect's serial
  /// loop on the calling thread.
  explicit ParallelOptSelectDiversifier(size_t num_threads = 0)
      : num_threads_(num_threads) {}

  std::string name() const override { return "ParallelOptSelect"; }

  void SelectInto(const DiversificationView& view,
                  const DiversifyParams& params, SelectScratch* scratch,
                  std::vector<size_t>* out) const override;

  size_t num_threads() const { return num_threads_; }

 private:
  size_t num_threads_;
};

}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_PARALLEL_OPTSELECT_H_
