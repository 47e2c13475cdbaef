// Wall-clock timing used by the efficiency benchmarks (Table 2).

#ifndef OPTSELECT_UTIL_TIMER_H_
#define OPTSELECT_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace optselect {
namespace util {

/// Monotonic stopwatch with microsecond resolution.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Restart, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Elapsed time in (fractional) milliseconds.
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedMicros()) / 1000.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace util
}  // namespace optselect

#endif  // OPTSELECT_UTIL_TIMER_H_
