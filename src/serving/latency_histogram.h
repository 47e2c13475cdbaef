// Streaming latency histogram for the serving stats (p50/p95/p99).
//
// HDR-style log-linear bucketing over microseconds: values below 2^kSubBits
// are recorded exactly; above that, each power-of-two range is split into
// 2^kSubBits linear sub-buckets, bounding the relative quantile error at
// 2^-kSubBits (≈1.6% with 6 sub-bits) while keeping the footprint at a few
// KB. Recording is a single relaxed fetch_add — wait-free, no allocation —
// so worker threads can record on the request hot path; Percentile walks a
// snapshot of the counters and may race benignly with writers (quantiles
// over a prefix of the traffic).

#ifndef OPTSELECT_SERVING_LATENCY_HISTOGRAM_H_
#define OPTSELECT_SERVING_LATENCY_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace optselect {
namespace serving {

/// Fixed-range concurrent histogram of int64 microsecond values.
class LatencyHistogram {
 public:
  LatencyHistogram();

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one latency observation (negative values clamp to 0).
  void Record(int64_t micros);

  /// Number of recorded observations.
  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sum of all recorded observations, in microseconds (exact, unlike
  /// the bucketed quantiles). Exposition wants count+sum pairs.
  uint64_t TotalMicros() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Mean of all observations, in microseconds (0 when empty).
  double MeanMicros() const;

  /// Approximate quantile (q in [0, 1]) in microseconds; 0 when empty.
  /// Returns the midpoint of the bucket containing the q-th observation.
  double PercentileMicros(double q) const;

  /// Adds every observation of `other` into this histogram (bucketwise;
  /// both use the same fixed layout). Used to aggregate per-shard
  /// latency into cluster-level quantiles. Concurrent writers on either
  /// side race benignly, like Percentile.
  void MergeFrom(const LatencyHistogram& other);

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBits;          // 64
  static constexpr int kMaxExponent = 40;  // covers ~2^40 us ≈ 12 days
  static constexpr int kNumBuckets =
      kSubBuckets + (kMaxExponent - kSubBits) * (kSubBuckets / 2);

  static int BucketIndex(uint64_t v);
  static double BucketMidpoint(int index);

  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_;
};

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_LATENCY_HISTOGRAM_H_
