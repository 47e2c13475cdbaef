// Horizontal scaling of the sharded serving cluster — the deployment
// dimension the paper's per-node efficiency argument exists to serve:
// OptSelect is cheap enough per node that aggregate capacity should
// grow with the number of nodes, not with heroics inside one.
//
// Replays one Zipf query mix against a single ServingNode and against
// ShardedClusters of 1, 2, and 4 shards (one worker per shard — each
// shard models one machine of a homogeneous fleet), cache OFF so every
// request pays the full retrieve + diversify compute, plans OFF so the
// measured work is the per-request path whose flat worker scaling
// motivated the cluster (see docs/BENCH.md). A final configuration
// replicates the hottest stored queries onto every shard and spreads
// them round-robin.
//
// Asserted, not just printed:
//   - every distinct query's cluster ranking is bit-identical to the
//     single-node path, for every shard count and with hot replication
//     (replicas serve from non-owner shards);
//   - per-shard stores partition the full store exactly (no replication);
//   - zero failed requests; cluster stats aggregation is consistent
//     (completed computations = identity serves + replay + hedges);
//   - on hosts with >= 4 hardware threads: aggregate cache-off QPS
//     scales >= 2x from 1 shard to 4 shards. On fewer cores the ratio
//     is reported but not enforced (no parallel speedup exists to
//     measure; the bench prints SKIP with the reason).
//
// Output: a human table plus BENCH_cluster_scaling.json (bench_util).
//
//   bench_cluster_scaling [requests] [zipf_skew] [min_scaling]
//
// `min_scaling` (default 2.0) is the enforced 1 -> 4 shard QPS ratio;
// 0 disables the enforcement while keeping every correctness assert —
// for sanitizer runs, where the instrumented allocator serializes the
// very threads the ratio measures.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/sharded_cluster.h"
#include "pipeline/testbed.h"
#include "querylog/popularity.h"
#include "serving/latency_histogram.h"
#include "serving/serving_node.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
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
  size_t failures = 0;
};

/// Replays `mix` through a frontend's SubmitAsync (node or cluster),
/// recording per-request latency locally; wall spans first submit to
/// last completion.
PhaseResult RunPhase(serving::Frontend* frontend,
                     const std::vector<std::string>& mix) {
  PhaseResult out;
  serving::LatencyHistogram hist;
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  size_t accepted = 0;
  std::atomic<size_t> failures{0};

  util::WallTimer timer;
  for (const std::string& query : mix) {
    auto enqueue = std::chrono::steady_clock::now();
    bool ok = frontend->SubmitAsync(
        serving::Request(query), [&, enqueue](serving::Response r) {
          auto now = std::chrono::steady_clock::now();
          hist.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                          now - enqueue)
                          .count());
          if (!r.ok) failures.fetch_add(1, std::memory_order_relaxed);
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
  out.qps = out.wall_ms > 0
                ? 1000.0 * static_cast<double>(accepted) / out.wall_ms
                : 0.0;
  out.p50_ms = hist.PercentileMicros(0.50) / 1000.0;
  out.p99_ms = hist.PercentileMicros(0.99) / 1000.0;
  out.failures = failures.load();
  return out;
}

/// Serves every distinct query through the cluster and counts rankings
/// that diverge from the single-node references.
size_t CountMismatches(
    cluster::ShardedCluster* cl,
    const std::map<std::string, std::vector<DocId>>& references) {
  size_t mismatches = 0;
  for (const auto& [query, reference] : references) {
    if (cl->Submit(serving::Request(query)).ranking != reference) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  double skew = argc > 2 ? std::atof(argv[2]) : 1.0;
  double min_scaling = argc > 3 ? std::atof(argv[3]) : 2.0;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("building testbed + store...\n");
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  // Plans off: the measured work is the full per-request retrieve +
  // diversify compute (the workload whose single-node worker scaling
  // is flat — docs/BENCH.md), not the microsecond plan path where the
  // single submitting thread would become the bottleneck.
  store::StoreBuilderOptions store_opts;
  store_opts.compile_plans = false;
  store::DiversificationStore full_store;
  store::BuildStore(testbed.detector(), testbed.searcher(),
                    testbed.snippets(), testbed.analyzer(),
                    testbed.corpus().store, roots, store_opts, &full_store);
  if (full_store.size() < 2) {
    std::fprintf(stderr, "error: need >= 2 stored entries\n");
    return 1;
  }
  // The clusters serve views of the store's in-memory v4 image; the
  // single-node reference serves the heap store it was encoded from.
  auto image = store::MappedStoreFile::FromStore(full_store);
  if (!image.ok()) {
    std::fprintf(stderr, "error: %s\n", image.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const store::MappedStoreFile> mapped =
      std::move(image).value();

  util::Rng rng(99);
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      testbed.recommender().popularity(), num_requests, skew, &rng);
  std::set<std::string> distinct(mix.begin(), mix.end());

  cluster::ClusterConfig base;
  base.node.num_workers = 1;  // one worker per shard: shard == machine
  base.node.queue_capacity = num_requests;
  base.node.max_batch = 8;
  base.node.enable_cache = false;
  base.node.params.num_candidates = 200;
  base.node.params.diversify.k = 10;

  // ---- single-node reference ------------------------------------------
  serving::ServingNode single(&full_store, &testbed, base.node);
  std::map<std::string, std::vector<DocId>> references;
  for (const std::string& query : distinct) {
    references[query] = single.Submit(serving::Request(query)).ranking;
  }
  std::printf("replaying %zu requests (skew %.2f, %zu distinct) on %u "
              "hardware threads...\n",
              num_requests, skew, distinct.size(), hw);
  PhaseResult single_phase = RunPhase(&single, mix);

  // ---- shard sweep ----------------------------------------------------
  bench::BenchJsonWriter json("cluster_scaling");
  util::TablePrinter tp;
  tp.SetHeader({"config", "wall ms", "QPS", "p50 ms", "p99 ms", "failures",
                "mismatches"});
  auto report = [&](const std::string& name, const PhaseResult& r,
                    size_t shards, size_t replicate_hot,
                    size_t mismatches) {
    tp.AddRow({name, util::TablePrinter::Num(r.wall_ms, 1),
               util::TablePrinter::Num(r.qps, 0),
               util::TablePrinter::Num(r.p50_ms, 2),
               util::TablePrinter::Num(r.p99_ms, 2),
               std::to_string(r.failures), std::to_string(mismatches)});
    json.Add(name,
             {{"shards", static_cast<double>(shards)},
              {"workers_per_shard", 1.0},
              {"replicate_hot", static_cast<double>(replicate_hot)},
              {"requests", static_cast<double>(num_requests)},
              {"zipf_skew", skew},
              {"hw_threads", static_cast<double>(hw)},
              {"failures", static_cast<double>(r.failures)},
              {"mismatches", static_cast<double>(mismatches)},
              {"p50_ms", r.p50_ms},
              {"p99_ms", r.p99_ms}},
             r.wall_ms, r.qps);
  };
  report("single_node", single_phase, 1, 0, 0);

  size_t total_failures = single_phase.failures;
  size_t total_mismatches = 0;
  size_t aggregation_errors = 0;
  double qps_1 = 0, qps_4 = 0;
  std::string last_metrics_json;  // registry dump of the last cluster run

  auto run_cluster = [&](size_t shards, size_t replicate_hot,
                         const std::string& name) {
    cluster::ClusterConfig config = base;
    config.num_shards = shards;
    config.replicate_hot = replicate_hot;
    cluster::ShardedCluster cl(mapped, &testbed,
                               &testbed.recommender().popularity(), config);
    if (replicate_hot == 0) {
      // Per-shard stores must partition the full store exactly.
      size_t sum = 0;
      for (size_t i = 0; i < cl.num_shards(); ++i) {
        sum += cl.shard(i)->snapshot()->entry_count();
      }
      if (sum != full_store.size()) {
        std::fprintf(stderr,
                     "FATAL: shard stores hold %zu entries, full store "
                     "%zu\n",
                     sum, full_store.size());
        std::exit(1);
      }
    }
    size_t mismatches = CountMismatches(&cl, references);
    PhaseResult phase = RunPhase(&cl, mix);
    cluster::ClusterStats cs = cl.Stats();
    uint64_t sum_completed = 0;
    for (const auto& s : cs.per_shard) sum_completed += s.completed;
    // Totals must be the sum of the shards, and every request of both
    // phases (identity serves + accepted replay) must be accounted for.
    // A hedge (replicated keys only) is one more computation of its
    // request on another shard. It completes before that shard's
    // replay requests — one FIFO worker per shard — so it is counted
    // by the time the replay drains.
    if (cs.total.completed != sum_completed ||
        cs.total.completed + phase.failures !=
            references.size() + static_cast<uint64_t>(num_requests) +
                cs.router.hedges_launched) {
      ++aggregation_errors;
    }
    report(name, phase, shards, replicate_hot, mismatches);
    total_failures += phase.failures;
    total_mismatches += mismatches;
    last_metrics_json = cl.metrics().RenderJson();
    return phase;
  };

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    PhaseResult phase = run_cluster(
        shards, 0, "shards=" + std::to_string(shards));
    if (shards == 1) qps_1 = phase.qps;
    if (shards == 4) qps_4 = phase.qps;
  }
  size_t hot = std::min<size_t>(4, full_store.size());
  run_cluster(4, hot, "shards=4 replicate_hot=" + std::to_string(hot));

  std::printf("%s", tp.ToString().c_str());
  double scaling = qps_1 > 0 ? qps_4 / qps_1 : 0.0;
  std::printf("scaling 1 -> 4 shards (cache off): %.2fx on %u hardware "
              "threads\n",
              scaling, hw);

  // Context block: shard- and router-level registry of the final
  // cluster configuration (4 shards + hot replication).
  json.SetMetricsJson(last_metrics_json);
  util::Status s = json.WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_cluster_scaling.json (%zu records)\n",
              json.size());

  // ---- asserted claims -----------------------------------------------
  if (total_failures > 0) {
    std::fprintf(stderr, "FATAL: %zu failed requests\n", total_failures);
    return 1;
  }
  if (total_mismatches > 0) {
    std::fprintf(stderr,
                 "FATAL: %zu cluster rankings diverged from the "
                 "single-node path\n",
                 total_mismatches);
    return 1;
  }
  if (aggregation_errors > 0) {
    std::fprintf(stderr, "FATAL: cluster stats aggregation inconsistent\n");
    return 1;
  }
  if (min_scaling <= 0) {
    std::printf("SKIP: scaling enforcement disabled (min_scaling 0)\n");
  } else if (hw >= 4) {
    if (scaling < min_scaling) {
      std::fprintf(stderr,
                   "FATAL: 1 -> 4 shard scaling %.2fx < %.1fx on %u "
                   "hardware threads\n",
                   scaling, min_scaling, hw);
      return 1;
    }
  } else {
    std::printf("SKIP: scaling >= %.1fx not enforced on %u hardware "
                "thread(s) — shards share cores, no parallel speedup "
                "exists to measure\n",
                min_scaling, hw);
  }
  std::printf("bit-identical rankings across all shard configs: OK over "
              "%zu distinct queries\n",
              references.size());
  return 0;
}
