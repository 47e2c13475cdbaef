#include "report.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/kernels/kernels.h"
#include "obs/trace.h"
#include "serving/fault_injector.h"

namespace perfbench {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

HostTicks ReadHostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  HostTicks t;
  stat >> cpu;
  uint64_t v = 0;
  for (int field = 0; field < 10 && (stat >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

Distribution Distribute(std::vector<double> values) {
  Distribution d;
  d.count = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  auto rank = [&](double q) {
    size_t r = static_cast<size_t>(std::ceil(q * values.size()));
    return values[std::max<size_t>(r, 1) - 1];
  };
  d.p50 = rank(0.5);
  d.p99 = rank(0.99);
  d.max = values.back();
  return d;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Full precision: the value as measured, never rounded. A
    // non-finite value (a broken measurement) is written as 0 and
    // flagged by the caller through `correct`.
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void PrintHostRecord() {
#ifdef NDEBUG
  const char* build = "optimized (NDEBUG)";
#else
  const char* build = "debug (assertions on)";
#endif
  std::printf(
      "host: nproc=%ld kernels=%s build=%s tracing_compiled_in=%d "
      "fault_injection_compiled_in=%d\n",
      sysconf(_SC_NPROCESSORS_ONLN), optselect::core::kernels::ActiveName(),
      build, optselect::obs::TracingCompiledIn() ? 1 : 0,
      optselect::serving::FaultInjectionCompiledIn() ? 1 : 0);
}

}  // namespace perfbench
