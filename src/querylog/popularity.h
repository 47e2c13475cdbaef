// Query popularity f(·) — the frequency function used by Algorithm 1 to
// filter specialization candidates and derive P(q′|q).

#ifndef OPTSELECT_QUERYLOG_POPULARITY_H_
#define OPTSELECT_QUERYLOG_POPULARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "querylog/query_log.h"
#include "util/rng.h"

namespace optselect {
namespace querylog {

/// Frequency table of distinct query strings in a log: f(q) is the
/// number of records submitting q. Clicks do not count.
class PopularityMap {
 public:
  PopularityMap() = default;

  /// Counts every record in `log`.
  explicit PopularityMap(const QueryLog& log);

  /// Frequency f(q); 0 for unseen queries.
  uint64_t Frequency(std::string_view query) const;

  /// Number of distinct queries.
  size_t distinct() const { return counts_.size(); }

  /// Total number of counted submissions.
  uint64_t total() const { return total_; }

  /// Manually bumps a query (used by incremental construction in tests).
  void Increment(std::string_view query, uint64_t by = 1);

  const std::unordered_map<std::string, uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::unordered_map<std::string, uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Replay traffic for load tests and serving benchmarks: draws
/// `num_requests` queries by sampling Zipf(skew)-distributed ranks over
/// the popularity order (most frequent query = rank 0; frequency ties
/// break lexicographically for determinism). `popularity` must be
/// non-empty.
std::vector<std::string> ZipfQueryMix(const PopularityMap& popularity,
                                      size_t num_requests, double skew,
                                      util::Rng* rng);

}  // namespace querylog
}  // namespace optselect

#endif  // OPTSELECT_QUERYLOG_POPULARITY_H_
