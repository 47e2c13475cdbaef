// Incremental query-log ingestion — the freshness half of Section 4.1.
//
// The paper mines the diversification store from a "long-term query log"
// as an offline batch job. A live system's log never stops growing, so a
// serving node that wants fresh specializations must not re-read (let
// alone re-mine) the full log on every refresh. A LogIngestor tails one
// TSV log file (the QueryLog::SaveTsv format) from a remembered byte
// offset: each Poll() parses only the bytes appended since the last
// call, folds the new records into an incrementally maintained
// PopularityMap, and reports which queries are now *dirty* — i.e. whose
// mined statistics (frequency f(·), and hence P(q′|q)) may have changed
// and should be re-mined by the store refresh loop.
//
// Tail-safety: a concurrent writer may be mid-line at poll time. Poll()
// consumes only complete ('\n'-terminated) lines and leaves a trailing
// partial line in the file for the next poll; the offset never advances
// past unconsumed bytes. Malformed complete lines are counted and
// skipped rather than failing the poll (a live tail must not wedge on
// one bad record).

#ifndef OPTSELECT_QUERYLOG_LOG_INGESTOR_H_
#define OPTSELECT_QUERYLOG_LOG_INGESTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "querylog/popularity.h"
#include "querylog/query_log.h"
#include "util/status.h"

namespace optselect {
namespace querylog {

/// Outcome of one Poll(): the appended records plus dirty bookkeeping.
struct IngestDelta {
  /// Newly ingested records, in file order.
  QueryLog log;
  /// Distinct query strings observed in this delta, sorted. These are
  /// the queries whose popularity changed; the refresh loop extends the
  /// set with stored entries that *reference* them (see
  /// store::MineDelta) before re-mining.
  std::vector<std::string> dirty_queries;
  /// Complete lines that failed to parse and were skipped.
  size_t malformed_lines = 0;
  /// Bytes consumed by this poll (diagnostics).
  uint64_t bytes_consumed = 0;

  bool empty() const { return log.empty(); }
};

/// Tails one TSV query-log file incrementally.
class LogIngestor {
 public:
  explicit LogIngestor(std::string path);

  /// Reads every complete line between the current offset and EOF.
  /// Returns the delta (possibly empty — polling an unchanged file is
  /// not an error). Fails with kIoError only when the file cannot be
  /// opened or read at all.
  util::Result<IngestDelta> Poll();

  /// Moves the offset to the current end of the file without ingesting
  /// anything. Call after constructing an ingestor for a log whose
  /// current contents are already reflected in the mined store, so the
  /// first Poll() sees only genuinely new traffic.
  util::Status SkipToEnd();

  /// Cumulative popularity over everything ingested so far, maintained
  /// by pure increments (never recomputed from the full log): equal to
  /// PopularityMap over the ingested records.
  const PopularityMap& popularity() const { return popularity_; }

  /// Byte offset of the next unread record.
  uint64_t offset() const { return offset_; }

  /// Totals across all polls.
  uint64_t records_ingested() const { return records_ingested_; }
  uint64_t malformed_lines() const { return malformed_lines_; }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  uint64_t offset_ = 0;
  uint64_t records_ingested_ = 0;
  uint64_t malformed_lines_ = 0;
  PopularityMap popularity_;
};

}  // namespace querylog
}  // namespace optselect

#endif  // OPTSELECT_QUERYLOG_LOG_INGESTOR_H_
