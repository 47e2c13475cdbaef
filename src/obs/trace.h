// Per-request tracing: where does one request's time actually go?
//
// The metrics registry (obs/metrics.h) aggregates; a trace narrates.
// Each sampled request carries a Trace through its lifecycle —
//
//   admission → queue-wait → batch → cache-lookup → store-read
//             → plan/cold-select → reply
//
// on a ServingNode, plus router hops (attempt, hedge, degraded
// failover) when the request enters through a QueryRouter. Completed
// traces land in a fixed-capacity ring buffer (recent traffic) and a
// top-N slow-query log (worst offenders with their per-stage
// breakdown) on the owning Tracer.
//
// Sampling is deterministic: request sequence number `seq` is sampled
// iff `seq % sample_every == 0`. No wall clock, no RNG — under the
// sequential chaos replay both runs sample the same requests, which is
// what lets the chaos harness diff sampled trace sequences across runs
// A and B (`VerifyTraceInvariants` in src/cluster/chaos.h). Only
// ring-buffer storage is gated on sampling; the per-stage latency
// *histograms* record every request (see serving_node.cc), so stage
// quantiles describe all traffic, not a sample.
//
// Cost model mirrors fault_injector.h: the trace sites and stage
// timers are compiled into every build. With no Tracer installed a
// request pays one acquire load and a null check for the trace, plus
// the stage clock reads and relaxed histogram increments that feed
// the always-on stage histograms.

#ifndef OPTSELECT_OBS_TRACE_H_
#define OPTSELECT_OBS_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace optselect {
namespace obs {

/// Always true; kept because benchmark reports print the build's setup.
constexpr bool TracingCompiledIn() { return true; }

/// Lifecycle stages and router hops a TraceEvent can mark.
enum class TraceStage : uint8_t {
  kAdmission = 0,   ///< accepted into the queue
  kQueueWait,       ///< enqueue → batch drain
  kBatch,           ///< drained in a batch (detail = batch size)
  kCacheLookup,     ///< result-cache probe
  kStoreRead,       ///< store lookup + candidate materialization
  kSelect,          ///< OptSelect proper (plan or cold path)
  kReply,           ///< stats + completion callback
  kAttempt,         ///< router: primary/holder attempt (detail = shard)
  kHedge,           ///< router: hedge copy launched (detail = shard)
  kFailover,        ///< router: degraded sweep attempt (detail = shard)
  kScan,            ///< streaming cold path: candidate scan + pushes
                    ///< (detail = candidates materialized)
  kMaintain,        ///< streaming cold path: finalize + ranking assembly
};

const char* TraceStageName(TraceStage stage);

/// One timed (or point) event inside a trace. Offsets are relative to
/// the trace's start so traces are self-contained.
struct TraceEvent {
  TraceStage stage = TraceStage::kAdmission;
  int64_t start_us = 0;
  int64_t duration_us = 0;
  /// Stage-specific payload: batch size (kBatch), shard index
  /// (kAttempt/kHedge/kFailover), candidates materialized (kScan).
  uint64_t detail = 0;
};

/// A completed request narrative. Outcome fields mirror Response /
/// ChaosRequestOutcome so chaos can diff traces against its report.
struct Trace {
  uint64_t seq = 0;       ///< sampled request sequence number
  std::string query;
  bool ok = false;
  bool degraded = false;
  bool hedged = false;
  bool diversified = false;
  bool cache_hit = false;
  bool plan_served = false;
  bool streaming_served = false;
  uint64_t ranking_hash = 0;  ///< FNV-1a over result DocIds (0 if none)
  int64_t total_us = 0;
  std::vector<TraceEvent> events;

  /// Start reference for event offsets; not part of the exported data.
  std::chrono::steady_clock::time_point start{};

  /// Microseconds since `start`; stamps events as they are appended.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  }
};

/// Tracer knobs. Defaults suit load paths; the serve REPL uses
/// sample_every = 1 so interactive queries always trace.
struct TracerConfig {
  /// 1-in-N deterministic sampling (0 and 1 both mean "every request").
  uint64_t sample_every = 64;
  /// Completed traces kept (oldest evicted first).
  size_t ring_capacity = 256;
};

/// Collects sampled traces. Commit is mutex-guarded but touched only
/// 1-in-N; ShouldSample is a pure function.
class Tracer {
 public:
  explicit Tracer(TracerConfig config);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TracerConfig& config() const { return config_; }

  /// Deterministic sampling decision for a request sequence number.
  bool ShouldSample(uint64_t seq) const {
    uint64_t n = config_.sample_every;
    if (n <= 1) return true;
    return seq % n == 0;
  }

  /// Stores a completed trace in the ring buffer and, if it ranks,
  /// the slow-query log.
  void Commit(Trace trace);

  /// Ring-buffer contents, oldest → newest.
  std::vector<Trace> Recent() const;

  /// Slow-query log: the kSlowCapacity slowest traces, slowest first.
  std::vector<Trace> Slowest() const;

  /// Traces committed over the tracer's lifetime (ring may have
  /// evicted some).
  uint64_t committed() const;

  /// Human-readable multi-line rendering of a trace with per-stage
  /// breakdown (the `:traces` REPL command and slow-query log format).
  static std::string Format(const Trace& trace);

 private:
  /// Traces the slow-query log keeps.
  static constexpr size_t kSlowCapacity = 8;

  TracerConfig config_;

  mutable std::mutex mu_;
  std::deque<Trace> ring_;
  std::vector<Trace> slow_;  // sorted desc by total_us
  uint64_t committed_ = 0;
};

/// Per-request stage durations in microseconds. -1 means the stage was
/// never reached (cache hit skips store-read/select; disabled cache
/// skips cache-lookup) — only >= 0 values are recorded into the stage
/// histograms, so each stage's quantiles describe the requests that
/// actually ran it.
struct StageTimes {
  int64_t queue_wait_us = -1;
  int64_t cache_lookup_us = -1;
  int64_t store_read_us = -1;
  int64_t select_us = -1;
  int64_t reply_us = -1;
  /// Streaming cold path only: sub-phases of select (scan the candidate
  /// stream vs. finalize + assemble). select_us still covers both, so
  /// the stage-sum identity over the top-level stages is unchanged.
  int64_t scan_us = -1;
  int64_t maintain_us = -1;
};

/// Scope guard: measures from construction to destruction, then writes
/// `*out_us` (when set — feeds the always-on stage histograms) and
/// appends a TraceEvent to `trace` (when non-null — the sampled
/// narrative).
class TraceSpan {
 public:
  TraceSpan(Trace* trace, TraceStage stage, uint64_t detail = 0,
            int64_t* out_us = nullptr)
      : trace_(trace),
        stage_(stage),
        detail_(detail),
        out_us_(out_us),
        t0_(std::chrono::steady_clock::now()) {}

  /// Overrides the detail payload before the span ends — for details
  /// only known at the end of the stage (e.g. the scan span's
  /// materialized-candidate count).
  void set_detail(uint64_t detail) { detail_ = detail; }

  /// Ends the span before scope exit (branchy code where the stage
  /// boundary is not a scope boundary). Idempotent.
  void End() {
    if (!armed_) return;
    armed_ = false;
    auto now = std::chrono::steady_clock::now();
    int64_t us =
        std::chrono::duration_cast<std::chrono::microseconds>(now - t0_)
            .count();
    if (out_us_ != nullptr) *out_us_ = us;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.stage = stage_;
      e.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       t0_ - trace_->start)
                       .count();
      e.duration_us = us;
      e.detail = detail_;
      trace_->events.push_back(e);
    }
  }

  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Trace* trace_;
  TraceStage stage_;
  uint64_t detail_;
  int64_t* out_us_;
  std::chrono::steady_clock::time_point t0_;
  bool armed_ = true;
};

}  // namespace obs
}  // namespace optselect

#endif  // OPTSELECT_OBS_TRACE_H_
