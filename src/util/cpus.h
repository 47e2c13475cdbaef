// The number of CPUs this process may run on — the size of every
// "one thread per core" pool (store build, index build, serving
// workers, the parallel OptSelect scan) — and the loop that runs work
// on that many threads.

#ifndef OPTSELECT_UTIL_CPUS_H_
#define OPTSELECT_UTIL_CPUS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <future>
#include <vector>

namespace optselect {
namespace util {

/// CPUs in the calling thread's affinity mask (sched_getaffinity), so
/// `taskset -c 0` or a cpuset-limited container counts 1; falls back
/// to std::thread::hardware_concurrency() where the mask is
/// unavailable, then to 1. Never 0.
size_t AvailableCpus();

/// Runs work(i) once for every i in [0, count), on min(AvailableCpus(),
/// count) threads counting the caller, each taking the next index as
/// it finishes one. `work` must be safe to run concurrently for
/// distinct i. An exception from any thread reaches the caller once
/// every thread has stopped (a std::async future waits in its
/// destructor).
template <typename Work>
void ParallelFor(size_t count, const Work& work) {
  const size_t threads = std::min(AvailableCpus(), count);
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next++; i < count; i = next++) work(i);
  };
  std::vector<std::future<void>> helpers;
  for (size_t t = 1; t < threads; ++t) {
    helpers.push_back(std::async(std::launch::async, drain));
  }
  drain();
  for (std::future<void>& helper : helpers) helper.get();
}

}  // namespace util
}  // namespace optselect

#endif  // OPTSELECT_UTIL_CPUS_H_
