#include "util/cpus.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace optselect {
namespace util {

size_t AvailableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace util
}  // namespace optselect
