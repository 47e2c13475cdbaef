// Query log model (paper Section 3.1).
//
// A query log Q is a set of records ⟨q_i, u_i, t_i, V_i, C_i⟩ storing, for
// each submitted query: the anonymized user, the submission timestamp, the
// URLs returned as top-k results, and the clicked results.

#ifndef OPTSELECT_QUERYLOG_QUERY_LOG_H_
#define OPTSELECT_QUERYLOG_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace optselect {
namespace querylog {

using UserId = uint32_t;
using DocUrlId = uint32_t;

/// One log record ⟨q, u, t, V, C⟩.
struct QueryRecord {
  std::string query;             ///< normalized query string q_i
  UserId user = 0;               ///< anonymized user u_i
  int64_t timestamp = 0;         ///< submission time t_i (seconds)
  std::vector<DocUrlId> results; ///< V_i: returned top-k result ids
  std::vector<DocUrlId> clicks;  ///< C_i ⊆ V_i: clicked result ids
};

/// Append-only in-memory query log with TSV persistence.
class QueryLog {
 public:
  void Add(QueryRecord record) { records_.push_back(std::move(record)); }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const QueryRecord& record(size_t i) const { return records_[i]; }
  const std::vector<QueryRecord>& records() const { return records_; }

  /// Indices of all records, grouped by user and sorted by (user, time).
  /// The result is a partition of [0, size()): one vector per user stream.
  std::vector<std::vector<size_t>> UserStreams() const;

  /// Splits records chronologically: the first `fraction` (by timestamp
  /// order) go to `train`, the rest to `test`. Used by the Appendix C
  /// evaluation (70/30 split).
  void SplitChronological(double fraction, QueryLog* train,
                          QueryLog* test) const;

  /// Serializes to a TSV file: query \t user \t time \t v1,v2 \t c1,c2.
  util::Status SaveTsv(const std::string& path) const;

  /// Parses a TSV file written by SaveTsv.
  static util::Result<QueryLog> LoadTsv(const std::string& path);

  /// Parses one SaveTsv line (no trailing newline). Shared by LoadTsv
  /// and the incremental tail reader (LogIngestor). Numeric fields are
  /// strict decimal: user and result/click ids are digits only, at most
  /// 2^32 − 1; the timestamp is an optional '-' then digits, within
  /// int64. Anything else is kCorruption naming the field.
  static util::Result<QueryRecord> ParseTsvLine(const std::string& line);

 private:
  std::vector<QueryRecord> records_;
};

}  // namespace querylog
}  // namespace optselect

#endif  // OPTSELECT_QUERYLOG_QUERY_LOG_H_
