#include "spans.h"

#include <cstdio>

#include "report.h"

namespace perfbench {

int32_t SpanRecorder::Begin(const char* name, uint32_t request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(s);
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  spans_.back().start_ns = NowNs();  // last, so bookkeeping is outside
  return id;
}

void SpanRecorder::End(int32_t id) {
  const int64_t now = NowNs();
  spans_[id].end_ns = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, int64_t> SpanRecorder::SelfTimes() const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_ns - spans_[i].start_ns - covered[i];
  }
  return self;
}

std::map<std::string, int64_t> SpanRecorder::TotalTimes() const {
  std::map<std::string, int64_t> total;
  for (const Span& s : spans_) total[s.name] += s.end_ns - s.start_ns;
  return total;
}

bool SpanRecorder::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%u\t%s\t%lld\t%lld\n", i, s.parent, s.request,
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
