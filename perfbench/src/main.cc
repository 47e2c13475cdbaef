// perfbench — open-loop serving benchmark (see ../README.md).
//
//   perfbench --workload plan_zipf --seed 1 --seconds 12 --trace 0
//             [--workdir .bench_build/runs]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// budget of a separate traced run. The last stdout line is the JSON
// result; the exit code is non-zero on any failed request or mismatch.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      return Usage();
    } else if (flag == "--seed") {
      o.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (number <= 0) return Usage();
      o.seconds = number;
    } else if (flag == "--trace") {
      o.trace = number != 0;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  return perfbench::RunWorkload(o);
}
