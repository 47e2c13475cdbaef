#include "querylog/query_log.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "util/strings.h"

namespace optselect {
namespace querylog {
namespace {

std::string JoinIds(const std::vector<DocUrlId>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

/// Parses a non-empty run of decimal digits (no sign, no spaces) whose
/// value is at most `max`.
bool ParseDecimal(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (max - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

/// Parses an optional '-' then a non-empty run of decimal digits,
/// within int64.
bool ParseInt64(const std::string& text, int64_t* out) {
  const size_t first_digit = !text.empty() && text[0] == '-' ? 1 : 0;
  if (text.size() == first_digit ||
      text.find_first_not_of("0123456789", first_digit) !=
          std::string::npos) {
    return false;
  }
  errno = 0;
  const long long v = std::strtoll(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = v;
  return true;
}

util::Status BadField(const char* name, const std::string& text) {
  return util::Status::Corruption(std::string("bad ") + name + ": '" +
                                  text + "'");
}

util::Result<std::vector<DocUrlId>> ParseIds(const char* name,
                                             const std::string& field) {
  std::vector<DocUrlId> ids;
  if (field.empty()) return ids;
  for (const std::string& piece : util::Split(field, ',')) {
    uint64_t v = 0;
    if (!ParseDecimal(piece, std::numeric_limits<DocUrlId>::max(), &v)) {
      return BadField(name, piece);
    }
    ids.push_back(static_cast<DocUrlId>(v));
  }
  return ids;
}

}  // namespace

std::vector<std::vector<size_t>> QueryLog::UserStreams() const {
  std::map<UserId, std::vector<size_t>> by_user;
  for (size_t i = 0; i < records_.size(); ++i) {
    by_user[records_[i].user].push_back(i);
  }
  std::vector<std::vector<size_t>> streams;
  streams.reserve(by_user.size());
  for (auto& [user, idxs] : by_user) {
    std::stable_sort(idxs.begin(), idxs.end(), [this](size_t a, size_t b) {
      return records_[a].timestamp < records_[b].timestamp;
    });
    streams.push_back(std::move(idxs));
  }
  return streams;
}

void QueryLog::SplitChronological(double fraction, QueryLog* train,
                                  QueryLog* test) const {
  std::vector<size_t> order(records_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return records_[a].timestamp < records_[b].timestamp;
  });
  size_t cut = static_cast<size_t>(fraction * static_cast<double>(order.size()));
  for (size_t i = 0; i < order.size(); ++i) {
    (i < cut ? train : test)->Add(records_[order[i]]);
  }
}

util::Status QueryLog::SaveTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return util::Status::IoError("cannot open for write: " + path);
  for (const QueryRecord& r : records_) {
    out << r.query << '\t' << r.user << '\t' << r.timestamp << '\t'
        << JoinIds(r.results) << '\t' << JoinIds(r.clicks) << '\n';
  }
  if (!out) return util::Status::IoError("write failed: " + path);
  return util::Status::Ok();
}

util::Result<QueryRecord> QueryLog::ParseTsvLine(const std::string& line) {
  std::vector<std::string> fields = util::Split(line, '\t');
  if (fields.size() != 5) {
    return util::Status::Corruption(util::StrFormat(
        "expected 5 fields, got %zu", fields.size()));
  }
  QueryRecord r;
  r.query = fields[0];
  uint64_t user = 0;
  if (!ParseDecimal(fields[1], std::numeric_limits<UserId>::max(), &user)) {
    return BadField("user", fields[1]);
  }
  r.user = static_cast<UserId>(user);
  if (!ParseInt64(fields[2], &r.timestamp)) {
    return BadField("timestamp", fields[2]);
  }
  auto results = ParseIds("result id", fields[3]);
  if (!results.ok()) return results.status();
  auto clicks = ParseIds("click id", fields[4]);
  if (!clicks.ok()) return clicks.status();
  r.results = std::move(results).value();
  r.clicks = std::move(clicks).value();
  return r;
}

util::Result<QueryLog> QueryLog::LoadTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot open for read: " + path);
  QueryLog log;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto record = ParseTsvLine(line);
    if (!record.ok()) {
      return util::Status::Corruption(
          util::StrFormat("line %zu: ", lineno) +
          record.status().message());
    }
    log.Add(std::move(record).value());
  }
  return log;
}

}  // namespace querylog
}  // namespace optselect
