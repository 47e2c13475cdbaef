// Span recorder for the traced run.
//
// The traced run replays requests one at a time on one thread and wraps
// each call into a module's public functions in a span: name, start,
// end, parent span and request id. Spans stay in memory and are written
// out once at exit. A layer's self time is its span's duration minus the
// part its child spans cover; on one thread children never overlap, so
// that is the sum of the direct children's durations.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: the layer-qualified call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index of the enclosing span, -1 at the root
  uint32_t request = 0;   ///< replayed request id (0 for setup spans)
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  /// Opens a span under the innermost open one.
  int32_t Begin(const char* name, uint32_t request);
  /// Closes span `id` (the innermost open one).
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Total self time per span name, ns.
  std::map<std::string, int64_t> SelfTimes() const;
  /// Total duration per span name, ns.
  std::map<std::string, int64_t> TotalTimes() const;
  /// Writes one tab-separated line per span; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null recorder records nothing (the untraced replay).
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, uint32_t request)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, request) : -1) {}
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void End() {
    if (id_ >= 0) recorder_->End(id_);
    id_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
