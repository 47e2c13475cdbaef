// Measurement helpers shared by the benchmark: clocks, CPU accounting,
// exact order statistics, the host/build record, and the one-line JSON
// result the benchmark prints last.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
int64_t NowNs();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), ns.
int64_t ThreadCpuNs();
/// CPU time of the whole process (CLOCK_PROCESS_CPUTIME_ID), ns.
int64_t ProcessCpuNs();
/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMib();
/// Returns freed heap to the system and resets VmHWM to the current
/// resident set (writes 5 to /proc/self/clear_refs). False when the
/// kernel refuses.
bool ResetPeakRss();
/// Aggregate CPU ticks of the machine from /proc/stat: time stolen by
/// the hypervisor and the total, so a phase can report how much of the
/// host it really had.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();

/// Exact nearest-rank order statistics of a sample.
struct Distribution {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
Distribution Distribute(std::vector<double> values);
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of one run, in print order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// One "name value unit" line per metric on stdout.
  void Print() const;
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Prints nproc, the dispatched selection kernels, the build type and
/// the compiled-in tracing / fault-injection switches, so figures from
/// different hosts or builds are never compared silently.
void PrintHostRecord();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
