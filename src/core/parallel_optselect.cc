#include "core/parallel_optselect.h"

#include <algorithm>
#include <future>

#include "util/cpus.h"

namespace optselect {
namespace core {

void ParallelOptSelectDiversifier::SelectInto(
    const DiversificationView& view, const DiversifyParams& params,
    SelectScratch* scratch, std::vector<size_t>* out) const {
  out->clear();
  const size_t n = view.num_candidates;
  const size_t k = std::min(params.k, n);
  if (k == 0) return;

  size_t threads = num_threads_ > 0 ? num_threads_ : util::AvailableCpus();
  threads = std::min(threads, std::max<size_t>(n / 1024, 1));

  auto begin = [&](StreamingTopK* stream) {
    stream->Begin(view.probability, view.num_specializations, k,
                  params.lambda, view.spec_order);
  };
  // Shard 0 streams on the calling thread into the caller's scratch, so
  // the one-thread case is exactly OptSelect's loop.
  StreamingTopK& merged = scratch->stream;
  begin(&merged);
  const size_t chunk = (n + threads - 1) / threads;
  // The other shards stream on their own threads into per-call streams
  // (the sharded regime only starts at n ≥ 2048, where their cost is
  // noise); a shard past the end of R_q streams nothing. A std::async
  // future waits for its thread in its destructor and get() rethrows
  // the thread's exception, so no path leaves a shard thread running.
  std::vector<StreamingTopK> shards(threads - 1);
  std::vector<std::future<void>> workers;
  workers.reserve(shards.size());
  for (size_t t = 1; t < threads; ++t) {
    const size_t lo = std::min(n, t * chunk);
    const size_t hi = std::min(n, lo + chunk);
    StreamingTopK* shard = &shards[t - 1];
    workers.push_back(
        std::async(std::launch::async, [&begin, &view, shard, lo, hi] {
          begin(shard);
          shard->PushRange(view, lo, hi);
        }));
  }
  merged.PushRange(view, 0, std::min(n, chunk));
  for (std::future<void>& worker : workers) worker.get();

  // Bounded heaps are order-independent (total-ordered keys), so the
  // merged retained sets equal what one serial scan would have kept.
  for (const StreamingTopK& shard : shards) merged.MergeFrom(shard);
  merged.Finalize(k, out);
}

}  // namespace core
}  // namespace optselect
