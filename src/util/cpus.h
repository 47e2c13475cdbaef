// The number of CPUs this process may run on — the size of every
// "one thread per core" pool (store build, serving workers, the
// parallel OptSelect scan).

#ifndef OPTSELECT_UTIL_CPUS_H_
#define OPTSELECT_UTIL_CPUS_H_

#include <cstddef>

namespace optselect {
namespace util {

/// CPUs in the calling thread's affinity mask (sched_getaffinity), so
/// `taskset -c 0` or a cpuset-limited container counts 1; falls back
/// to std::thread::hardware_concurrency() where the mask is
/// unavailable, then to 1. Never 0.
size_t AvailableCpus();

}  // namespace util
}  // namespace optselect

#endif  // OPTSELECT_UTIL_CPUS_H_
