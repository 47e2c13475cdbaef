#include "serving/latency_histogram.h"

#include <algorithm>
#include <cmath>

namespace optselect {
namespace serving {
namespace {

int FloorLog2(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(v);
#else
  int e = 0;
  while (v >>= 1) ++e;
  return e;
#endif
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(kNumBuckets), count_(0), sum_(0) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

int LatencyHistogram::BucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<int>(v);
  int exp = FloorLog2(v);
  if (exp >= kMaxExponent) {
    return kNumBuckets - 1;
  }
  // [2^exp, 2^(exp+1)) split into kSubBuckets/2 linear sub-buckets.
  int sub = static_cast<int>((v - (uint64_t{1} << exp)) >> (exp - kSubBits + 1));
  return kSubBuckets + (exp - kSubBits) * (kSubBuckets / 2) + sub;
}

double LatencyHistogram::BucketMidpoint(int index) {
  if (index < kSubBuckets) return static_cast<double>(index);
  int rel = index - kSubBuckets;
  int exp = kSubBits + rel / (kSubBuckets / 2);
  int sub = rel % (kSubBuckets / 2);
  double width = static_cast<double>(uint64_t{1} << (exp - kSubBits + 1));
  double lower = static_cast<double>(uint64_t{1} << exp) + sub * width;
  return lower + width / 2.0;
}

void LatencyHistogram::Record(int64_t micros) {
  uint64_t v = micros < 0 ? 0 : static_cast<uint64_t>(micros);
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double LatencyHistogram::MeanMicros() const {
  uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

double LatencyHistogram::PercentileMicros(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  // Rank of the q-th observation (1-based, ceil), the standard
  // nearest-rank definition.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketMidpoint(i);
  }
  return BucketMidpoint(kNumBuckets - 1);
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n > 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

}  // namespace serving
}  // namespace optselect
