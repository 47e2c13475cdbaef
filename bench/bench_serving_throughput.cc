// Serving throughput scaling — the subsystem the paper's efficiency
// argument exists to enable: OptSelect inside a serving node answering a
// production-shaped query stream.
//
// Replays a Zipf-distributed query mix (ranks drawn over the synthetic
// log's popularity order, querylog::PopularityMap) against a ServingNode
// while sweeping the worker-pool size 1, 2, 4, ... up to
// max(4, hardware_concurrency), then contrasts cache-on vs cache-off at
// the largest pool. Every distinct query's cached ranking is asserted
// bit-identical to the uncached path before any timing is reported.
//
// Output: a human table plus BENCH_serving_throughput.json (bench_util).
//
//   bench_serving_throughput [requests] [zipf_skew]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/parallel_optselect.h"
#include "core/select_view.h"
#include "core/utility.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "querylog/popularity.h"
#include "serving/replay.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

struct RunResult {
  double wall_ms = 0;
  double qps = 0;
  serving::ServingStats stats;
  /// The node's full registry dump (obs::MetricsRegistry::RenderJson):
  /// the last run's copy is embedded into the BENCH json as context.
  std::string metrics_json;
};

/// Replays the mix through one node configuration; wall time spans
/// first submit to last completion (serving::ReplayMix).
RunResult Replay(const store::DiversificationStore* store,
                 const pipeline::Testbed* testbed,
                 serving::ServingConfig config,
                 const std::vector<std::string>& mix) {
  serving::ServingNode node(store, testbed, config);
  serving::ReplayOutcome out = serving::ReplayMix(&node, mix);
  if (out.accepted != mix.size()) {
    std::fprintf(stderr, "error: %zu of %zu requests shed (queue too small)\n",
                 mix.size() - out.accepted, mix.size());
    std::exit(1);
  }
  RunResult r;
  r.wall_ms = out.wall_ms;
  r.qps = out.qps;
  r.stats = node.Stats();
  node.Shutdown();  // drain so the registry dump is post-quiescence
  r.metrics_json = node.metrics().RenderJson();
  return r;
}

/// Flat-scaling diagnosis probe: the exact fallback compute a cache-off
/// request pays (retrieve R_q ─> utilities ─> SelectInto, or plain
/// retrieval for passthrough queries), run by N plain threads pulling
/// from a shared atomic cursor — no request queue, no micro-batcher,
/// no cache anywhere in the loop. If this probe scales with N while
/// the node's cache-off sweep stays flat, the node serializes requests
/// somewhere; if both are flat, the host has no spare cores and the
/// worker pool has nothing to scale onto (the 1-hardware-thread case —
/// see docs/BENCH.md).
double ComputeOnlyQps(const store::DiversificationStore* store,
                      const pipeline::Testbed* testbed,
                      const pipeline::PipelineParams& params,
                      const std::vector<std::string>& mix,
                      size_t num_threads) {
  core::ParallelOptSelectDiversifier diversifier(1);
  std::atomic<size_t> cursor{0};
  util::WallTimer timer;
  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    pool.emplace_back([&] {
      core::SelectScratch scratch;
      for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < mix.size();
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const std::string& query = mix[i];
        std::vector<text::TermId> terms =
            testbed->analyzer().AnalyzeReadOnly(query);
        index::ResultList rq =
            testbed->searcher().SearchTerms(terms, params.num_candidates);
        if (rq.empty()) continue;
        const store::StoredEntry* entry = store->Find(query);
        if (entry == nullptr || entry->specializations.size() < 2) {
          // Passthrough work: the truncated DPH ranking.
          std::vector<DocId> ranking;
          size_t k = std::min(params.diversify.k, rq.size());
          ranking.reserve(k);
          for (size_t r = 0; r < k; ++r) ranking.push_back(rq[r].doc);
          continue;
        }
        core::DiversificationInput input;
        input.query = query;
        input.candidates = pipeline::BuildCandidates(
            rq, testbed->snippets(), testbed->corpus().store, terms);
        input.specializations =
            store::DiversificationStore::ToProfiles(*entry);
        core::UtilityComputer computer(
            core::UtilityComputer::Options{params.threshold_c});
        core::UtilityMatrix utilities = computer.Compute(input);
        core::DiversificationView view =
            core::MakeView(input, utilities, &scratch);
        diversifier.SelectInto(view, params.diversify, &scratch,
                               &scratch.picks);
        pipeline::AssembleRanking(input, scratch.picks,
                                  params.diversify.k);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  double wall_ms = timer.ElapsedMillis();
  return wall_ms > 0 ? 1000.0 * static_cast<double>(mix.size()) / wall_ms
                     : 0.0;
}

/// Asserts cached rankings equal uncached ones for every distinct query.
void CheckCacheBitIdentity(const store::DiversificationStore* store,
                           const pipeline::Testbed* testbed,
                           serving::ServingConfig config,
                           const std::vector<std::string>& mix) {
  std::set<std::string> distinct(mix.begin(), mix.end());
  config.enable_cache = true;
  serving::ServingNode cached(store, testbed, config);
  config.enable_cache = false;
  serving::ServingNode uncached(store, testbed, config);
  for (const std::string& q : distinct) {
    serving::Response cold = cached.Submit(serving::Request(q));
    serving::Response warm = cached.Submit(serving::Request(q));
    serving::Response direct = uncached.Submit(serving::Request(q));
    if (cold.ranking != direct.ranking || warm.ranking != direct.ranking) {
      std::fprintf(stderr, "FATAL: cached ranking diverged for '%s'\n",
                   q.c_str());
      std::exit(1);
    }
  }
  std::printf("cache bit-identity: OK over %zu distinct queries\n",
              distinct.size());
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  double skew = argc > 2 ? std::atof(argv[2]) : 1.0;

  std::printf("building testbed + store...\n");
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  store::DiversificationStore store;
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  // Plans off: this bench measures the *per-request* retrieve +
  // diversify compute the worker pool exists to scale (and that the
  // compute_only diagnosis probe reproduces); with compiled plans the
  // cache-off rows would measure the microsecond plan path instead,
  // which bench_plan_serving owns.
  store::StoreBuilderOptions store_opts;
  store_opts.compile_plans = false;
  store::BuildStore(testbed.detector(), testbed.searcher(),
                    testbed.snippets(), testbed.analyzer(),
                    testbed.corpus().store, roots, store_opts, &store);

  util::Rng rng(99);
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      testbed.recommender().popularity(), num_requests, skew, &rng);

  serving::ServingConfig base;
  base.queue_capacity = num_requests;
  base.max_batch = 8;
  base.params.num_candidates = 200;
  base.params.diversify.k = 10;

  CheckCacheBitIdentity(&store, &testbed, base, mix);

  size_t max_workers =
      std::max<size_t>(4, std::thread::hardware_concurrency());
  std::vector<size_t> worker_counts;
  for (size_t w = 1; w <= max_workers; w *= 2) worker_counts.push_back(w);

  bench::BenchJsonWriter json("serving_throughput");
  util::TablePrinter tp;
  tp.SetHeader({"config", "wall ms", "QPS", "p50 ms", "p99 ms", "hit rate",
                "mean batch"});

  auto add = [&](const std::string& name, const RunResult& r,
                 size_t workers, bool cache) {
    tp.AddRow({name, util::TablePrinter::Num(r.wall_ms, 1),
               util::TablePrinter::Num(r.qps, 0),
               util::TablePrinter::Num(r.stats.p50_ms, 2),
               util::TablePrinter::Num(r.stats.p99_ms, 2),
               util::TablePrinter::Num(r.stats.cache_hit_rate, 3),
               util::TablePrinter::Num(r.stats.mean_batch, 2)});
    json.Add(name,
             {{"workers", static_cast<double>(workers)},
              {"requests", static_cast<double>(num_requests)},
              {"zipf_skew", skew},
              {"cache", cache ? 1.0 : 0.0},
              {"max_batch", static_cast<double>(8)},
              {"hw_threads",
               static_cast<double>(std::thread::hardware_concurrency())},
              {"p50_ms", r.stats.p50_ms},
              {"p99_ms", r.stats.p99_ms},
              {"cache_hit_rate", r.stats.cache_hit_rate}},
             r.wall_ms, r.qps,
             // Which selection backend the cold path used: the node's
             // default (streaming scan-and-maintain) unless configured
             // off. Descriptive — the regression gate ignores strings.
             {{"backend", base.streaming_cold_path ? "streaming"
                                                   : "materialized"}});
  };

  // The worker sweep runs cache-off so each request pays the full
  // retrieve + diversify cost — that is the compute whose scaling the
  // pool exists to provide. Cache-on rows ride along to show what the
  // Zipf mix turns into once the LRU absorbs the head queries.
  double qps_1 = 0, qps_4 = 0;
  for (size_t workers : worker_counts) {
    serving::ServingConfig config = base;
    config.num_workers = workers;
    config.enable_cache = false;
    RunResult cold = Replay(&store, &testbed, config, mix);
    if (workers == 1) qps_1 = cold.qps;
    if (workers == 4) qps_4 = cold.qps;
    add("workers=" + std::to_string(workers) + " cache=off", cold, workers,
        false);

    config.enable_cache = true;
    RunResult warm = Replay(&store, &testbed, config, mix);
    add("workers=" + std::to_string(workers) + " cache=on", warm, workers,
        true);
    // Last sweep row's registry becomes the document's metrics block.
    json.SetMetricsJson(warm.metrics_json);
  }

  std::printf("%s", tp.ToString().c_str());
  if (qps_1 > 0 && qps_4 > 0) {
    std::printf(
        "scaling 1 -> 4 workers (cache off): %.2fx (on %u hardware "
        "threads)\n",
        qps_4 / qps_1, std::thread::hardware_concurrency());
  }

  // ---- flat-scaling diagnosis (queue-free compute probe) -------------
  // Answers "is the flat cache-off sweep the node's fault?" with a
  // measurement: the same per-request compute with the queue and
  // batcher removed entirely. Emitted to the JSON so the diagnosis is
  // a bench record, not an anecdote.
  double compute_qps_1 = 0, compute_qps_4 = 0;
  for (size_t threads : worker_counts) {
    double qps =
        ComputeOnlyQps(&store, &testbed, base.params, mix, threads);
    if (threads == 1) compute_qps_1 = qps;
    if (threads == 4) compute_qps_4 = qps;
    std::printf("compute_only threads=%zu: %.0f QPS (no queue/batcher)\n",
                threads, qps);
    json.Add("compute_only threads=" + std::to_string(threads),
             {{"threads", static_cast<double>(threads)},
              {"requests", static_cast<double>(num_requests)},
              {"zipf_skew", skew},
              {"hw_threads",
               static_cast<double>(std::thread::hardware_concurrency())}},
             qps > 0 ? 1000.0 * static_cast<double>(num_requests) / qps
                     : 0.0,
             qps, {{"backend", "materialized"}});
  }
  if (compute_qps_1 > 0 && compute_qps_4 > 0 && qps_1 > 0 && qps_4 > 0) {
    double node_scaling = qps_4 / qps_1;
    double compute_scaling = compute_qps_4 / compute_qps_1;
    std::printf(
        "diagnosis: node scaling %.2fx vs queue-free compute scaling "
        "%.2fx — %s\n",
        node_scaling, compute_scaling,
        compute_scaling < 1.5
            ? "both flat: the host's cores, not the node's queue, are "
              "the serialization point"
            : node_scaling < compute_scaling / 1.5
                  ? "node serializes: investigate the queue/batcher"
                  : "node tracks the hardware: no internal "
                    "serialization point");
  }

  util::Status s = json.WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_serving_throughput.json (%zu records)\n",
              json.size());
  return 0;
}
