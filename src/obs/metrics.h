// Unified metrics registry for the serving stack — the one place every
// counter, gauge, and latency distribution lives.
//
// Before this layer, each component kept private atomics and exported a
// hand-maintained snapshot struct (ServingStats, RouterStats, ...).
// That plumbing had two structural problems: every new metric touched
// three places (member, snapshot field, copy line), and a snapshot read
// its fields one by one while workers mutated them, so derived
// invariants (`completed <= accepted`) could be violated *within one
// snapshot*. The registry fixes both:
//
//   - components REGISTER their metrics once, with a name and a label
//     set (`shard=2`, `stage=select`), and keep wait-free handles
//     (Counter* / LatencyHistogram*) for the hot path — recording is
//     exactly the relaxed fetch_add it was before;
//   - snapshots are taken THROUGH the registry in registration order.
//     Registering an effect before its cause (completed before
//     accepted) guarantees monotone pair invariants hold in every
//     snapshot: the effect read first can only undercount relative to
//     the cause read later, never overcount.
//
// The legacy stats structs survive as thin views assembled from the
// handles (same coherent read order), so existing callers keep working.
//
// Exposition: RenderPrometheus() emits the Prometheus text format
// (counters/gauges as-is, histograms as summaries with quantile
// labels, latency in seconds), RenderJson() a machine-readable dump
// (latency in microseconds). Both walk the registry in registration
// order. See `optselect stats`, the serve REPL's `:stats`, and
// `loadtest --metrics-out`.
//
// Threading: registration is expected at component construction time
// (it takes a mutex and allocates); handles are stable pointers that
// never move afterwards. Recording through a handle is wait-free.
// Collect/Render are safe concurrently with recording (relaxed reads,
// quantiles over a prefix of the traffic, like the stats structs
// always were). Callback-backed metrics (gauges, foreign counters)
// capture non-owned state: collect only while the registering
// component is alive.

#ifndef OPTSELECT_OBS_METRICS_H_
#define OPTSELECT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serving/latency_histogram.h"

namespace optselect {
namespace obs {

/// Metric labels, e.g. {{"shard", "2"}, {"stage", "select"}}. Order is
/// preserved into the exposition output.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Wait-free monotone counter. Handles are owned by the registry and
/// stay valid for its lifetime. Increments release and reads acquire:
/// a reader that sees an effect counter's increment also sees every
/// cause counter its writer bumped before it, which is what makes the
/// registry's effect-before-cause read order coherent on weakly
/// ordered CPUs (relaxed atomics give no cross-counter order on ARM).
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_release); }
  uint64_t value() const { return v_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// One collected point-in-time sample (exposition-agnostic form).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;
  /// Counter/gauge value (counters as exact integers in double form).
  double value = 0.0;
  /// Histogram-only fields, microseconds.
  uint64_t count = 0;
  uint64_t sum_us = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Central registry. Components register once; snapshots and exposition
/// walk the metrics in registration order (the coherence order).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers an owned counter and returns its wait-free handle.
  /// Register effects before causes: Collect() reads in registration
  /// order, which is what makes `effect <= cause` hold per snapshot.
  Counter* AddCounter(std::string name, Labels labels = {});

  /// Registers a counter whose value lives elsewhere (a component's own
  /// atomic or mutex-guarded tally). `read` must stay valid while the
  /// registry collects; it is called without registry locks held.
  void AddCounterFn(std::string name, Labels labels,
                    std::function<uint64_t()> read);

  /// Registers a callback gauge (point-in-time value, may go down).
  void AddGaugeFn(std::string name, Labels labels,
                  std::function<double()> read);

  /// Registers an owned latency histogram (microsecond values) and
  /// returns its handle for recording.
  serving::LatencyHistogram* AddHistogram(std::string name,
                                          Labels labels = {});

  /// Point-in-time samples of every metric, in registration order (one
  /// pass, each metric read exactly once — the coherent snapshot).
  std::vector<MetricSample> Collect() const;

  /// Every registered histogram whose name is `name`, as (labels,
  /// histogram) pairs — callers merge across label sets (e.g. per-shard
  /// stage histograms into one cluster-wide stage distribution) with
  /// LatencyHistogram::MergeFrom.
  std::vector<std::pair<Labels, const serving::LatencyHistogram*>>
  HistogramsNamed(const std::string& name) const;

  /// Prometheus text exposition format (latency summaries in seconds).
  std::string RenderPrometheus() const;

  /// JSON dump: {"counters": [...], "gauges": [...],
  /// "histograms": [...]} with latency in microseconds.
  std::string RenderJson() const;

  size_t size() const;

 private:
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;                    // kCounter (owned)
    std::function<uint64_t()> counter_fn;                // kCounter (foreign)
    std::function<double()> gauge_fn;                    // kGauge
    std::unique_ptr<serving::LatencyHistogram> histogram;  // kHistogram
  };

  /// Guards registration only; entries_ is append-only and entries are
  /// never reordered, so Collect can walk it lock-free after taking the
  /// current size under the mutex.
  mutable std::mutex mu_;
  std::deque<Entry> entries_;
};

}  // namespace obs
}  // namespace optselect

#endif  // OPTSELECT_OBS_METRICS_H_
