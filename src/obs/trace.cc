#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace optselect {
namespace obs {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kAdmission: return "admission";
    case TraceStage::kQueueWait: return "queue_wait";
    case TraceStage::kBatch: return "batch";
    case TraceStage::kCacheLookup: return "cache_lookup";
    case TraceStage::kStoreRead: return "store_read";
    case TraceStage::kSelect: return "select";
    case TraceStage::kReply: return "reply";
    case TraceStage::kAttempt: return "attempt";
    case TraceStage::kHedge: return "hedge";
    case TraceStage::kFailover: return "failover";
    case TraceStage::kScan: return "scan";
    case TraceStage::kMaintain: return "maintain";
  }
  return "unknown";
}

Tracer::Tracer(TracerConfig config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

void Tracer::Commit(Trace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  ++committed_;
  // Slow-query log: keep the kSlowCapacity largest totals, sorted desc.
  if (slow_.size() < kSlowCapacity ||
      trace.total_us > slow_.back().total_us) {
    auto pos = std::upper_bound(
        slow_.begin(), slow_.end(), trace,
        [](const Trace& a, const Trace& b) {
          return a.total_us > b.total_us;
        });
    slow_.insert(pos, trace);
    if (slow_.size() > kSlowCapacity) slow_.pop_back();
  }
  ring_.push_back(std::move(trace));
  while (ring_.size() > config_.ring_capacity) ring_.pop_front();
}

std::vector<Trace> Tracer::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Trace>(ring_.begin(), ring_.end());
}

std::vector<Trace> Tracer::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

uint64_t Tracer::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

std::string Tracer::Format(const Trace& trace) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "#%" PRIu64 " \"%s\" total=%.3fms%s%s%s%s%s%s%s hash=%016" PRIx64
                "\n",
                trace.seq, trace.query.c_str(),
                static_cast<double>(trace.total_us) / 1000.0,
                trace.ok ? " ok" : " FAIL", trace.degraded ? " degraded" : "",
                trace.hedged ? " hedged" : "",
                trace.cache_hit ? " cache_hit" : "",
                trace.plan_served ? " plan" : "",
                trace.streaming_served ? " streaming" : "",
                trace.diversified ? " diversified" : "", trace.ranking_hash);
  std::string out = buf;
  for (const TraceEvent& e : trace.events) {
    std::snprintf(buf, sizeof(buf),
                  "  +%8.3fms %-12s %8.3fms  detail=%" PRIu64 "\n",
                  static_cast<double>(e.start_us) / 1000.0,
                  TraceStageName(e.stage),
                  static_cast<double>(e.duration_us) / 1000.0, e.detail);
    out += buf;
  }
  return out;
}

}  // namespace obs
}  // namespace optselect
