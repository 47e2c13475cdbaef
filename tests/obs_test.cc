// Tests for the observability layer: the unified metrics registry
// (registration, coherent collection order, Prometheus/JSON exposition),
// LatencyHistogram::MergeFrom quantile correctness against a
// sorted-vector oracle, deterministic trace sampling, the trace ring /
// slow-query log, and snapshot coherence of the registry-backed
// ServingStats under concurrent load (`completed <= accepted` must hold
// in every snapshot, not just at quiescence).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/testbed.h"
#include "serving/latency_histogram.h"
#include "serving/serving_node.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/rng.h"

namespace optselect {
namespace obs {
namespace {

// -------------------------------------------------------- registry

TEST(MetricsRegistryTest, CollectsInRegistrationOrderWithAllKinds) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("optselect_test_total", {{"shard", "2"}});
  c->Add(5);
  uint64_t foreign = 41;
  reg.AddCounterFn("optselect_foreign_total", {},
                   [&foreign] { return foreign; });
  double level = 2.5;
  reg.AddGaugeFn("optselect_level", {{"stage", "select"}},
                 [&level] { return level; });
  serving::LatencyHistogram* h =
      reg.AddHistogram("optselect_lat_seconds", {{"shard", "2"}});
  h->Record(1000);
  h->Record(3000);

  ASSERT_EQ(reg.size(), 4u);
  std::vector<MetricSample> samples = reg.Collect();
  ASSERT_EQ(samples.size(), 4u);

  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[0].name, "optselect_test_total");
  ASSERT_EQ(samples[0].labels.size(), 1u);
  EXPECT_EQ(samples[0].labels[0].first, "shard");
  EXPECT_EQ(samples[0].value, 5.0);

  EXPECT_EQ(samples[1].name, "optselect_foreign_total");
  EXPECT_EQ(samples[1].value, 41.0);

  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(samples[2].value, 2.5);

  EXPECT_EQ(samples[3].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(samples[3].count, 2u);
  EXPECT_EQ(samples[3].sum_us, 4000u);
  EXPECT_GT(samples[3].p50_us, 0.0);
}

TEST(MetricsRegistryTest, HistogramsNamedReturnsEveryLabelSet) {
  MetricsRegistry reg;
  serving::LatencyHistogram* a =
      reg.AddHistogram("optselect_stage_latency_seconds",
                       {{"shard", "0"}, {"stage", "select"}});
  serving::LatencyHistogram* b =
      reg.AddHistogram("optselect_stage_latency_seconds",
                       {{"shard", "1"}, {"stage", "select"}});
  reg.AddHistogram("optselect_other_seconds", {});
  a->Record(10);
  b->Record(20);

  auto named = reg.HistogramsNamed("optselect_stage_latency_seconds");
  ASSERT_EQ(named.size(), 2u);
  serving::LatencyHistogram merged;
  for (const auto& [labels, hist] : named) merged.MergeFrom(*hist);
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_TRUE(reg.HistogramsNamed("nope").empty());
}

TEST(MetricsRegistryTest, PrometheusDeclaresEachTypeOnceAndEscapes) {
  MetricsRegistry reg;
  reg.AddCounter("optselect_x_total", {{"shard", "0"}})->Add(1);
  reg.AddCounter("optselect_x_total", {{"shard", "1"}})->Add(2);
  reg.AddCounter("optselect_esc_total",
                 {{"q", "a\"b\\c\nd"}})->Add(3);
  std::string text = reg.RenderPrometheus();

  // One TYPE line for the two-label-set counter, not two.
  size_t first = text.find("# TYPE optselect_x_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE optselect_x_total counter", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("optselect_x_total{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("optselect_x_total{shard=\"1\"} 2"),
            std::string::npos);
  // Label-value escaping: quote, backslash, newline.
  EXPECT_NE(text.find("q=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusRendersHistogramAsSummary) {
  MetricsRegistry reg;
  serving::LatencyHistogram* h =
      reg.AddHistogram("optselect_lat_seconds", {{"shard", "3"}});
  for (int i = 0; i < 100; ++i) h->Record(1000);  // 1ms each
  std::string text = reg.RenderPrometheus();

  EXPECT_NE(text.find("# TYPE optselect_lat_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("optselect_lat_seconds{shard=\"3\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("optselect_lat_seconds_sum{shard=\"3\"} 0.1"),
            std::string::npos);
  EXPECT_NE(text.find("optselect_lat_seconds_count{shard=\"3\"} 100"),
            std::string::npos);
}

TEST(MetricsRegistryTest, JsonDumpHasSectionsAndValues) {
  MetricsRegistry reg;
  reg.AddCounter("optselect_j_total", {{"shard", "0"}})->Add(7);
  reg.AddGaugeFn("optselect_j_gauge", {}, [] { return 1.5; });
  reg.AddHistogram("optselect_j_seconds", {})->Record(500);
  std::string json = reg.RenderJson();

  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"optselect_j_total\""), std::string::npos);
  EXPECT_NE(json.find("7"), std::string::npos);
}

// ------------------------------------------- MergeFrom vs oracle

// The histogram's log-linear buckets (kSubBits = 6) bound relative
// quantile error at ~1.6%; 4% tolerance leaves room for the midpoint
// convention on top.
constexpr double kRelTol = 0.04;

/// Asserts `got` matches quantile q of `values` within bucket error.
/// The band spans both rank conventions (floor vs ceil) so the test
/// pins MergeFrom's bucketwise addition, not the rank arithmetic.
void ExpectQuantileNear(std::vector<int64_t> values, double q,
                        double got) {
  ASSERT_FALSE(values.empty());
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  size_t lo_idx = static_cast<size_t>(q * static_cast<double>(n - 1));
  size_t hi_idx = std::min<size_t>(
      n - 1, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
  double lo = static_cast<double>(values[lo_idx]);
  double hi = static_cast<double>(values[hi_idx]);
  EXPECT_GE(got, lo * (1.0 - kRelTol))
      << "q=" << q << " n=" << n << " oracle=[" << lo << "," << hi << "]";
  EXPECT_LE(got, hi * (1.0 + kRelTol))
      << "q=" << q << " n=" << n << " oracle=[" << lo << "," << hi << "]";
}

void CheckMergedQuantiles(const std::vector<int64_t>& a,
                          const std::vector<int64_t>& b) {
  serving::LatencyHistogram ha, hb;
  for (int64_t v : a) ha.Record(v);
  for (int64_t v : b) hb.Record(v);
  ha.MergeFrom(hb);

  std::vector<int64_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  ASSERT_EQ(ha.count(), all.size());

  int64_t exact_sum = 0;
  for (int64_t v : all) exact_sum += v;
  EXPECT_EQ(ha.TotalMicros(), static_cast<uint64_t>(exact_sum));

  for (double q : {0.50, 0.99, 0.999}) {
    ExpectQuantileNear(all, q, ha.PercentileMicros(q));
  }
}

TEST(LatencyHistogramMergeTest, DisjointRangesMatchOracle) {
  // a: fast path (0.1–1ms), b: slow tail (50–200ms) — merged p99/p999
  // must land in b's range even though a dominates the count.
  util::Rng rng(7);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(100 + static_cast<int64_t>(rng.Uniform(900)));
  }
  for (int i = 0; i < 100; ++i) {
    b.push_back(50000 + static_cast<int64_t>(rng.Uniform(150000)));
  }
  CheckMergedQuantiles(a, b);
}

TEST(LatencyHistogramMergeTest, OverlappingRangesMatchOracle) {
  util::Rng rng(11);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 3000; ++i) {
    a.push_back(1000 + static_cast<int64_t>(rng.Uniform(9000)));
    b.push_back(2000 + static_cast<int64_t>(rng.Uniform(9000)));
  }
  CheckMergedQuantiles(a, b);
}

TEST(LatencyHistogramMergeTest, EmptySourceAndEmptyTarget) {
  serving::LatencyHistogram empty, filled;
  for (int64_t v : {100, 200, 300}) filled.Record(v);

  filled.MergeFrom(empty);  // no-op
  EXPECT_EQ(filled.count(), 3u);

  serving::LatencyHistogram target;
  target.MergeFrom(filled);  // into empty
  EXPECT_EQ(target.count(), 3u);
  EXPECT_EQ(target.TotalMicros(), 600u);
  ExpectQuantileNear({100, 200, 300}, 0.5, target.PercentileMicros(0.5));
}

TEST(LatencyHistogramMergeTest, SingleBucketValuesStayExact) {
  // Values below 2^6 = 64 are recorded exactly (one value per bucket);
  // merging must keep them exact, including p999.
  serving::LatencyHistogram a, b;
  for (int i = 0; i < 500; ++i) a.Record(7);
  for (int i = 0; i < 500; ++i) b.Record(7);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.PercentileMicros(0.5), 7.0);
  EXPECT_EQ(a.PercentileMicros(0.999), 7.0);
}

// --------------------------------------------------------- tracer

Trace MakeTrace(uint64_t seq, int64_t total_us) {
  Trace t;
  t.seq = seq;
  t.query = "q" + std::to_string(seq);
  t.ok = true;
  t.total_us = total_us;
  return t;
}

TEST(TracerTest, SamplingIsDeterministic) {
  TracerConfig config;
  config.sample_every = 8;
  Tracer tracer(config);
  Tracer same(config);
  for (uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_EQ(tracer.ShouldSample(seq), seq % 8 == 0) << seq;
    EXPECT_EQ(tracer.ShouldSample(seq), same.ShouldSample(seq)) << seq;
  }

  TracerConfig every;
  every.sample_every = 1;
  EXPECT_TRUE(Tracer(every).ShouldSample(12345));
  every.sample_every = 0;
  EXPECT_TRUE(Tracer(every).ShouldSample(12345));
}

TEST(TracerTest, RingEvictsOldestAndCountsCommits) {
  TracerConfig config;
  config.ring_capacity = 4;
  Tracer tracer(config);
  // More commits than the slow-query log keeps (8).
  for (uint64_t seq = 0; seq < 12; ++seq) {
    tracer.Commit(MakeTrace(seq, static_cast<int64_t>(100 * (seq + 1))));
  }
  EXPECT_EQ(tracer.committed(), 12u);

  std::vector<Trace> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 4u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].seq, 8u + i);  // oldest -> newest
  }

  std::vector<Trace> slow = tracer.Slowest();
  ASSERT_EQ(slow.size(), 8u);
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].seq, 11u - i);  // slowest first: 1200us, 1100us, ...
  }
}

TEST(TracerTest, SlowLogKeepsWorstRegardlessOfRingEviction) {
  TracerConfig config;
  config.ring_capacity = 2;
  Tracer tracer(config);
  tracer.Commit(MakeTrace(0, 9000));  // worst, committed first
  // Twice the slow-query log's 8 slots of faster traces.
  for (uint64_t seq = 1; seq <= 16; ++seq) {
    tracer.Commit(MakeTrace(seq, 100));
  }
  std::vector<Trace> slow = tracer.Slowest();
  ASSERT_EQ(slow.size(), 8u);
  EXPECT_EQ(slow[0].seq, 0u);
  EXPECT_EQ(slow[0].total_us, 9000);
}

TEST(TracerTest, BreakerTransitionsRecordedUnsampled) {
  TracerConfig config;
  config.sample_every = 1000000;  // traces effectively never sampled
  Tracer tracer(config);
  tracer.RecordBreakerTransition(2, 0, 1);
  tracer.RecordBreakerTransition(2, 1, 2);
  std::vector<Tracer::BreakerEvent> events = tracer.breaker_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].shard, 2u);
  EXPECT_EQ(events[0].from, 0);
  EXPECT_EQ(events[0].to, 1);
  EXPECT_EQ(events[1].to, 2);
}

TEST(TraceSpanTest, RecordsEventAndStageMicros) {
  Trace trace;
  trace.start = std::chrono::steady_clock::now();
  int64_t out_us = -1;
  {
    TraceSpan span(&trace, TraceStage::kSelect, 0, &out_us);
  }
  EXPECT_GE(out_us, 0);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].stage, TraceStage::kSelect);
  EXPECT_GE(trace.events[0].duration_us, 0);

  // End() is idempotent: a second (implicit) end appends nothing.
  int64_t again = -1;
  TraceSpan span(&trace, TraceStage::kReply, 0, &again);
  span.End();
  span.End();
  EXPECT_EQ(trace.events.size(), 2u);

  // Null trace: only the stage-histogram out-param is written.
  int64_t only_us = -1;
  { TraceSpan s(nullptr, TraceStage::kStoreRead, 0, &only_us); }
  EXPECT_GE(only_us, 0);
  EXPECT_EQ(trace.events.size(), 2u);
}

// --------------------------------- stats coherence under load

class ObsServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    store_ = new store::DiversificationStore();
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    store::BuildStore(testbed_->detector(), testbed_->searcher(),
                      testbed_->snippets(), testbed_->analyzer(),
                      testbed_->corpus().store, roots, {}, store_);
    ASSERT_GE(store_->size(), 2u);
    auto image = store::MappedStoreFile::FromStore(*store_);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    snapshot_ = store::StoreSnapshot::FromMapped(std::move(image).value());
  }
  static void TearDownTestSuite() {
    snapshot_.reset();
    delete store_;
    delete testbed_;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  static pipeline::Testbed* testbed_;
  static store::DiversificationStore* store_;
  /// store_'s in-memory v4 image, what every node here serves.
  static std::shared_ptr<const store::StoreSnapshot> snapshot_;
};

pipeline::Testbed* ObsServingTest::testbed_ = nullptr;
store::DiversificationStore* ObsServingTest::store_ = nullptr;
std::shared_ptr<const store::StoreSnapshot> ObsServingTest::snapshot_;

/// Every ServingStats snapshot taken *while workers are completing
/// requests* must satisfy the monotone pair invariants: the registry
/// collects effects before causes, so `completed <= accepted` (and
/// friends) hold per snapshot, not just at quiescence.
TEST_F(ObsServingTest, StatsSnapshotsCoherentUnderConcurrentLoad) {
  serving::ServingConfig config;
  config.num_workers = 4;
  config.queue_capacity = 4096;
  config.max_batch = 4;
  config.enable_cache = true;
  config.params.num_candidates = 100;
  config.params.diversify.k = 10;
  serving::ServingNode node(snapshot_, testbed_, config);

  std::vector<std::string> queries;
  for (const auto& [query, entry] : store_->entries()) {
    queries.push_back(query);
  }
  std::sort(queries.begin(), queries.end());

  std::atomic<bool> done{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0};
  std::thread producer([&] {
    for (int round = 0; round < 200 && !stop.load(); ++round) {
      for (const std::string& q : queries) {
        if (node.SubmitAsync(serving::Request(q), [](serving::Response) {})) {
          submitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    done.store(true, std::memory_order_release);
  });

  // Violations are recorded, not asserted, inside the loop: an ASSERT
  // returning while the producer is still joinable would call
  // std::terminate and abort the whole binary.
  std::string violation;
  auto check = [&](const char* what, uint64_t effect, uint64_t cause) {
    if (violation.empty() && effect > cause) {
      violation = std::string(what) + ": " + std::to_string(effect) + " > " +
                  std::to_string(cause);
    }
  };
  size_t snapshots = 0;
  while (violation.empty() &&
         (!done.load(std::memory_order_acquire) || snapshots < 50)) {
    serving::ServingStats s = node.Stats();
    ++snapshots;
    check("completed > accepted", s.completed, s.accepted);
    check("diversified > completed", s.diversified, s.completed);
    check("plan_served > diversified", s.plan_served, s.diversified);
    check("passthrough > completed", s.passthrough, s.completed);
    check("batched_requests > accepted", s.batched_requests, s.accepted);
    check("batch_dedup_hits > batched_requests", s.batch_dedup_hits,
          s.batched_requests);
    if (snapshots >= 5000) break;
  }
  stop.store(true);
  producer.join();
  node.Shutdown();
  ASSERT_TRUE(violation.empty()) << violation;

  serving::ServingStats s = node.Stats();
  EXPECT_EQ(s.accepted, submitted.load());
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_GE(snapshots, 50u);
}

/// The shared-registry deployment shape: an external registry outlives
/// the node, labels stamp every metric, and the legacy stats struct is
/// assembled from the same handles the registry collects.
TEST_F(ObsServingTest, ExternalRegistryLabeledAndCoherent) {
  MetricsRegistry registry;
  serving::ServingConfig config;
  config.num_workers = 2;
  config.queue_capacity = 256;
  config.params.num_candidates = 100;
  config.params.diversify.k = 10;
  config.registry = &registry;
  config.metric_labels = {{"shard", "7"}};
  serving::ServingNode node(snapshot_, testbed_, config);

  std::string stored = store_->entries().begin()->first;
  for (int i = 0; i < 5; ++i) node.Submit(serving::Request(stored));
  node.Shutdown();

  double accepted = -1, completed = -1;
  for (const MetricSample& s : registry.Collect()) {
    ASSERT_FALSE(s.labels.empty()) << s.name;
    EXPECT_EQ(s.labels[0].first, "shard");
    EXPECT_EQ(s.labels[0].second, "7");
    if (s.name == "optselect_serving_accepted_total") accepted = s.value;
    if (s.name == "optselect_serving_completed_total") completed = s.value;
  }
  EXPECT_EQ(accepted, 5.0);
  EXPECT_EQ(completed, 5.0);
  EXPECT_EQ(node.Stats().completed, 5u);

  // The stage timers run in every build: all five requests waited in
  // the queue, probed the cache and replied; only the first (the one
  // cache miss) read the store and ran select.
  std::map<std::string, uint64_t> stage_counts;
  for (const auto& [labels, hist] :
       registry.HistogramsNamed("optselect_stage_latency_seconds")) {
    for (const auto& [key, value] : labels) {
      if (key == "stage") stage_counts[value] = hist->count();
    }
  }
  EXPECT_EQ(stage_counts["queue_wait"], 5u);
  EXPECT_EQ(stage_counts["cache_lookup"], 5u);
  EXPECT_EQ(stage_counts["reply"], 5u);
  EXPECT_EQ(stage_counts["store_read"], 1u);
  EXPECT_EQ(stage_counts["select"], 1u);
}

}  // namespace
}  // namespace obs
}  // namespace optselect
