// Hot-reload latency impact — the zero-downtime half of the store
// lifecycle. A ServingNode keeps answering a Zipf query mix while a
// background thread repeatedly rebuilds the store snapshot (one entry's
// specialization distribution perturbed, then restored) and swaps it
// in with ReloadStore. Measured claims, all asserted, not just printed:
//
//   - zero failed requests across every swap (the RCU-style snapshot
//     swap never rejects or drops an in-flight request);
//   - a query whose entry is identical in both snapshot variants keeps
//     a bit-identical ranking through every swap (per-key cache
//     invalidation never touches unchanged keys);
//   - p50/p99 latency under continuous swapping, reported next to the
//     swap-free baseline of the same mix (the swap-window cost);
//   - cold start: mmap+validate of the v4 file beats the heap parse
//     (map + full Materialize — what every pre-v4 process paid at
//     startup), with the per-shard resident cost of N MappedShard views
//     over one shared mapping vs heap copies of the same N slices.
//
// Output: a human table plus BENCH_store_reload.json (bench_util).
//
//   bench_store_reload [requests] [swap_period_ms] [zipf_skew]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "pipeline/testbed.h"
#include "store/mapped_store.h"
#include "querylog/popularity.h"
#include "serving/latency_histogram.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

struct PhaseResult {
  double wall_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t failures = 0;          // !ok results or shed submissions
  size_t pinned_mismatches = 0; // pinned-query rankings that diverged
  size_t swaps = 0;             // reloads performed during the phase
};

/// Replays `mix`, recording per-request latency locally. While the
/// phase runs, `swapper` (optional) flips the store between the two
/// entry variants every `swap_period`. `pinned` is a stored query whose
/// entry both variants share; every answer for it must equal
/// `pinned_reference`.
PhaseResult RunPhase(serving::ServingNode* node,
                     const std::vector<std::string>& mix,
                     const std::string& pinned,
                     const std::vector<DocId>& pinned_reference,
                     bool with_swaps, int swap_period_ms,
                     const store::StoredEntry* variant_a,
                     const store::StoredEntry* variant_b) {
  PhaseResult out;
  serving::LatencyHistogram hist;
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  size_t accepted = 0;
  std::atomic<size_t> failures{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<bool> stop_swapper{false};

  std::thread swapper;
  std::atomic<size_t> swaps{0};
  if (with_swaps) {
    swapper = std::thread([&] {
      bool use_b = true;
      while (!stop_swapper.load(std::memory_order_relaxed)) {
        std::shared_ptr<const store::StoreSnapshot> cur = node->snapshot();
        store::StoreDelta delta;
        delta.upserts.push_back(use_b ? *variant_b : *variant_a);
        use_b = !use_b;
        store::SnapshotBuildResult built =
            store::BuildSnapshot(cur.get(), delta);
        node->ReloadStore(built.snapshot, built.changed_keys);
        swaps.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(swap_period_ms));
      }
    });
  }

  util::WallTimer timer;
  for (const std::string& query : mix) {
    bool is_pinned = query == pinned;
    auto enqueue = std::chrono::steady_clock::now();
    bool ok = node->SubmitAsync(
        serving::Request(query),
        [&, is_pinned, enqueue](serving::Response r) {
          auto now = std::chrono::steady_clock::now();
          hist.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                          now - enqueue)
                          .count());
          if (!r.ok) failures.fetch_add(1, std::memory_order_relaxed);
          if (is_pinned && r.ranking != pinned_reference) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          std::lock_guard<std::mutex> lock(mu);
          ++done;
          cv.notify_one();
        });
    if (ok) {
      ++accepted;
    } else {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == accepted; });
  }
  out.wall_ms = timer.ElapsedMillis();
  if (with_swaps) {
    stop_swapper.store(true, std::memory_order_relaxed);
    swapper.join();
  }

  out.qps = out.wall_ms > 0
                ? 1000.0 * static_cast<double>(accepted) / out.wall_ms
                : 0.0;
  out.p50_ms = hist.PercentileMicros(0.50) / 1000.0;
  out.p99_ms = hist.PercentileMicros(0.99) / 1000.0;
  out.failures = failures.load();
  out.pinned_mismatches = mismatches.load();
  out.swaps = swaps.load();
  return out;
}

/// Resident set size from /proc/self/status; -1 when unavailable.
long RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atol(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct ColdStartResult {
  double map_ms = 0;        // min mmap+validate+index time
  double heap_ms = 0;       // min map + Materialize time
  double store_mib = 0;
  long rss_mapped_kb = 0;   // per-shard RSS delta, N MappedShard views
  long rss_heap_kb = 0;     // per-shard RSS delta, N heap slice copies
  size_t reps = 0;
  size_t shards = 0;
  bool ok = false;          // mmap cold start beat the heap parse
};

/// The startup cost a shard process pays before its first request:
/// min-of-reps mmap+validate vs the legacy heap parse over the same v4
/// bytes, plus the per-shard resident cost of shard views vs copies.
ColdStartResult MeasureColdStart(const std::string& path) {
  ColdStartResult out;
  out.reps = 7;
  out.shards = 4;
  out.map_ms = 1e100;
  out.heap_ms = 1e100;
  for (size_t rep = 0; rep < out.reps; ++rep) {
    util::WallTimer map_timer;
    auto mapped = store::MappedStoreFile::Map(path);
    double map_ms = map_timer.ElapsedMillis();
    if (!mapped.ok()) return out;
    out.map_ms = std::min(out.map_ms, map_ms);
    out.store_mib = static_cast<double>(mapped.value()->mapped_bytes()) /
                    (1024.0 * 1024.0);
    util::WallTimer heap_timer;
    store::DiversificationStore heap;
    {
      auto copied = store::MappedStoreFile::Map(path);
      if (!copied.ok()) return out;
      heap = copied.value()->Materialize();
    }  // unmapped inside the timed span, like the heap start-up it models
    double heap_ms = heap_timer.ElapsedMillis();
    out.heap_ms = std::min(out.heap_ms, heap_ms);
  }

  // Per-shard resident cost. The views share one mapping (pages are
  // page-cache-backed, counted once per host); the copies each own a
  // full heap parse of their slice. Deltas are noisy on a small store,
  // so they are reported, not gated.
  auto mapped = store::MappedStoreFile::Map(path);
  if (!mapped.ok()) return out;
  std::vector<std::shared_ptr<const store::StoreSnapshot>> views;
  {
    long before = RssKb();
    for (size_t i = 0; i < out.shards; ++i) {
      store::ShardFilter filter;
      filter.num_shards = out.shards;
      filter.shard_index = i;
      views.push_back(store::StoreSnapshot::MappedShard(
          mapped.value(), [filter](std::string_view key) {
            return filter.Keeps(key);
          }));
    }
    out.rss_mapped_kb =
        std::max(0L, RssKb() - before) / static_cast<long>(out.shards);
  }
  {
    // Each view's slice materialized onto the heap (StoreSnapshot::
    // store()): what a shard holding a heap copy pays.
    long before = RssKb();
    for (const auto& view : views) view->store();
    out.rss_heap_kb =
        std::max(0L, RssKb() - before) / static_cast<long>(out.shards);
  }
  out.ok = out.map_ms < out.heap_ms;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  int swap_period_ms = argc > 2 ? std::atoi(argv[2]) : 5;
  double skew = argc > 3 ? std::atof(argv[3]) : 1.0;
  if (swap_period_ms < 1) swap_period_ms = 1;

  std::printf("building testbed + store...\n");
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  store::DiversificationStore base;
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  store::BuildStore(testbed.detector(), testbed.searcher(),
                    testbed.snippets(), testbed.analyzer(),
                    testbed.corpus().store, roots, {}, &base);
  if (base.size() < 2) {
    std::fprintf(stderr, "error: need >= 2 stored entries\n");
    return 1;
  }

  // The swap target is the lexically-smallest stored key; the pinned
  // (never-changing) query is the next one. Variant B perturbs the
  // target's specialization distribution, which is exactly what a log
  // refresh does to an entry.
  std::string target_key, pinned_key;
  for (const auto& [key, entry] : base.entries()) {
    if (target_key.empty() || key < target_key) target_key = key;
  }
  for (const auto& [key, entry] : base.entries()) {
    if (key != target_key && (pinned_key.empty() || key < pinned_key)) {
      pinned_key = key;
    }
  }
  store::StoredEntry variant_a = *base.Find(target_key);
  store::StoredEntry variant_b = variant_a;
  double norm = 0;
  variant_b.specializations[0].probability *= 0.5;
  for (const auto& sp : variant_b.specializations) norm += sp.probability;
  for (auto& sp : variant_b.specializations) sp.probability /= norm;

  util::Rng rng(99);
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      testbed.recommender().popularity(), num_requests, skew, &rng);
  // Guarantee pinned coverage inside the measured stream.
  for (size_t i = 16; i < mix.size(); i += 97) mix[i] = pinned_key;

  serving::ServingConfig config;
  config.queue_capacity = num_requests;
  config.max_batch = 8;
  config.params.num_candidates = 200;
  config.params.diversify.k = 10;
  serving::ServingNode node(bench::ImageSnapshot(base), &testbed.searcher(),
                            &testbed.snippets(), &testbed.analyzer(),
                            &testbed.corpus().store, config);
  std::vector<DocId> pinned_reference =
      node.Submit(serving::Request(pinned_key)).ranking;

  std::printf("replaying %zu requests, swap every %d ms...\n", num_requests,
              swap_period_ms);
  PhaseResult steady = RunPhase(&node, mix, pinned_key, pinned_reference,
                                false, swap_period_ms, &variant_a,
                                &variant_b);
  PhaseResult reload = RunPhase(&node, mix, pinned_key, pinned_reference,
                                true, swap_period_ms, &variant_a,
                                &variant_b);
  serving::ServingStats stats = node.Stats();

  util::TablePrinter tp;
  tp.SetHeader({"phase", "wall ms", "QPS", "p50 ms", "p99 ms", "swaps",
                "failures"});
  auto row = [&](const char* name, const PhaseResult& r) {
    tp.AddRow({name, util::TablePrinter::Num(r.wall_ms, 1),
               util::TablePrinter::Num(r.qps, 0),
               util::TablePrinter::Num(r.p50_ms, 2),
               util::TablePrinter::Num(r.p99_ms, 2),
               std::to_string(r.swaps), std::to_string(r.failures)});
  };
  row("steady", steady);
  row("under_reload", reload);
  std::printf("%s", tp.ToString().c_str());

  const std::string cold_path = "bench_store_reload_cold_v4.bin";
  if (!base.Save(cold_path).ok()) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", cold_path.c_str());
    return 1;
  }
  ColdStartResult cold = MeasureColdStart(cold_path);
  std::remove(cold_path.c_str());
  if (cold.map_ms >= 1e99) {
    std::fprintf(stderr, "FATAL: cold-start measurement failed\n");
    return 1;
  }
  std::printf(
      "cold start (%.1f MiB v4, min of %zu reps): mmap+validate %.3f ms "
      "vs heap parse %.3f ms (%.1fx); per-shard RSS over %zu shards: "
      "%ld KiB mapped views vs %ld KiB heap copies\n",
      cold.store_mib, cold.reps, cold.map_ms, cold.heap_ms,
      cold.map_ms > 0 ? cold.heap_ms / cold.map_ms : 0.0, cold.shards,
      cold.rss_mapped_kb, cold.rss_heap_kb);
  std::printf(
      "store version %llu after %llu reloads, %llu cache invalidations\n",
      static_cast<unsigned long long>(stats.store_version),
      static_cast<unsigned long long>(stats.reloads),
      static_cast<unsigned long long>(stats.cache_invalidations));

  bench::BenchJsonWriter json("store_reload");
  auto record = [&](const char* name, const PhaseResult& r) {
    json.Add(name,
             {{"requests", static_cast<double>(num_requests)},
              {"zipf_skew", skew},
              {"swap_period_ms", static_cast<double>(swap_period_ms)},
              {"swaps", static_cast<double>(r.swaps)},
              {"failures", static_cast<double>(r.failures)},
              {"pinned_mismatches", static_cast<double>(r.pinned_mismatches)},
              {"p50_ms", r.p50_ms},
              {"p99_ms", r.p99_ms}},
             r.wall_ms, r.qps);
  };
  record("steady", steady);
  record("under_reload", reload);
  // Cold-start records: wall_ms is the min startup time (gated with
  // the usual latency slack); `failures` pins "mmap beats heap" as a
  // correctness bit, exactly zero or the gate fails. RSS params are
  // context (too noisy on a Small-testbed store to gate).
  json.Add("cold_start_mmap",
           {{"reps", static_cast<double>(cold.reps)},
            {"shards", static_cast<double>(cold.shards)},
            {"store_mib", cold.store_mib},
            {"rss_per_shard_kb", static_cast<double>(cold.rss_mapped_kb)},
            {"failures", cold.ok ? 0.0 : 1.0}},
           cold.map_ms, 0.0);
  json.Add("cold_start_heap",
           {{"reps", static_cast<double>(cold.reps)},
            {"shards", static_cast<double>(cold.shards)},
            {"store_mib", cold.store_mib},
            {"rss_per_shard_kb", static_cast<double>(cold.rss_heap_kb)},
            {"failures", 0.0}},
           cold.heap_ms, 0.0);
  // Context block: the node's registry after both phases (counters,
  // cache, refresh gauges). Context for humans/tooling, never gated on.
  json.SetMetricsJson(node.metrics().RenderJson());
  util::Status s = json.WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_store_reload.json (%zu records)\n", json.size());

  if (steady.failures + reload.failures > 0) {
    std::fprintf(stderr, "FATAL: %zu failed requests\n",
                 steady.failures + reload.failures);
    return 1;
  }
  if (steady.pinned_mismatches + reload.pinned_mismatches > 0) {
    std::fprintf(stderr,
                 "FATAL: %zu pinned-query rankings diverged across swaps\n",
                 steady.pinned_mismatches + reload.pinned_mismatches);
    return 1;
  }
  if (reload.swaps == 0) {
    std::fprintf(stderr, "FATAL: no swap happened during the reload phase\n");
    return 1;
  }
  if (!cold.ok) {
    std::fprintf(stderr,
                 "FATAL: mmap cold start (%.3f ms) did not beat the heap "
                 "parse (%.3f ms)\n",
                 cold.map_ms, cold.heap_ms);
    return 1;
  }
  std::printf("zero failed requests, pinned ranking bit-identical across "
              "%zu swaps, mmap cold start %.1fx faster than heap parse: "
              "OK\n",
              reload.swaps, cold.heap_ms / cold.map_ms);
  return 0;
}
