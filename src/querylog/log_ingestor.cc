#include "querylog/log_ingestor.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <utility>

namespace optselect {
namespace querylog {

LogIngestor::LogIngestor(std::string path) : path_(std::move(path)) {}

util::Status LogIngestor::SkipToEnd() {
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) return util::Status::IoError("cannot open for read: " + path_);
  offset_ = static_cast<uint64_t>(in.tellg());
  return util::Status::Ok();
}

util::Result<IngestDelta> LogIngestor::Poll() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return util::Status::IoError("cannot open for read: " + path_);

  in.seekg(0, std::ios::end);
  uint64_t size = static_cast<uint64_t>(in.tellg());
  IngestDelta delta;
  if (size <= offset_) {
    // Nothing appended (or the file was truncated/rotated — in that
    // case restart from the top rather than reading past EOF forever).
    if (size < offset_) offset_ = 0;
    if (size <= offset_) return delta;
  }

  in.seekg(static_cast<std::streamoff>(offset_));
  std::string tail(static_cast<size_t>(size - offset_), '\0');
  in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
  if (in.gcount() != static_cast<std::streamsize>(tail.size())) {
    tail.resize(static_cast<size_t>(in.gcount()));
  }

  // Consume only complete lines; a trailing partial line (concurrent
  // writer mid-record) stays in the file for the next poll.
  size_t consumed = tail.rfind('\n');
  if (consumed == std::string::npos) return delta;  // no complete line yet
  consumed += 1;

  std::set<std::string> dirty;
  size_t line_start = 0;
  while (line_start < consumed) {
    size_t line_end = tail.find('\n', line_start);
    std::string line = tail.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto record = QueryLog::ParseTsvLine(line);
    if (!record.ok()) {
      ++delta.malformed_lines;
      ++malformed_lines_;
      continue;
    }
    QueryRecord r = std::move(record).value();
    popularity_.Increment(r.query);
    dirty.insert(r.query);
    delta.log.Add(std::move(r));
  }

  offset_ += consumed;
  records_ingested_ += delta.log.size();
  delta.bytes_consumed = consumed;
  delta.dirty_queries.assign(dirty.begin(), dirty.end());
  return delta;
}

}  // namespace querylog
}  // namespace optselect
