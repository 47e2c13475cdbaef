// The benchmark's four workloads over one fixed testbed.
//
//   plan_zipf    one node, compiled plans off the mapped v4 store
//   cold_zipf    one node, plan-less store: retrieval + streaming top-k
//   wire_mix     loopback NetServer in front of a 2-shard cluster
//   refresh_mix  one node read beside a StoreRefresher writer
//
// README.md (this directory) gives each workload's reason, every
// metric's definition and the layer -> end-to-end table.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "loadgen.h"
#include "util/types.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for store files and span dumps (created).
  std::string workdir = ".bench_build/runs";
};

/// The workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Runs one workload: prints the human report, then the JSON result as
/// the last line of stdout. Returns the process exit code (non-zero on
/// any failed request, ranking mismatch or broken measurement).
int RunWorkload(const RunOptions& options);

/// The answer check: counts samples that were not admitted, not
/// answered, answered ok == false or degraded, or whose ranking differs
/// from `reference[query]` (a query with no reference also counts).
/// `mismatches` (optional) receives the ranking-difference share.
size_t CountBadAnswers(
    const std::vector<Sample>& samples,
    const std::vector<std::string>& queries,
    const std::unordered_map<std::string, std::vector<optselect::DocId>>&
        reference,
    size_t* mismatches = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
