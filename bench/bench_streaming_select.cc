// Streaming vs. materialized cold-path selection — the tentpole
// measurement for the streaming top-k diversifier.
//
// Three phases, each gated in-bench (a failed gate exits non-zero and
// records a non-zero correctness param, so check_bench.py catches a
// regressed baseline too):
//
//   1. correctness — every distinct query of a Zipf mix served by a
//      streaming-cold-path node and a materialized-cold-path node over
//      the same plans-off store; rankings must match bit for bit.
//   2. cold-path p50 — strictly sequential replay (one request in
//      flight, workers=1, cache off) through each node; the streaming
//      p50 must not exceed the materialized p50 by more than the
//      tolerance (arg 2; 0 disables the gate for sanitizer runs, whose
//      instrumentation distorts relative timings).
//   3. extend — a pager's k -> k+delta widening on retained core state:
//      Finalize(k) then Finalize(k+delta) on one StreamingTopK that
//      reserved k+delta, asserted to perform ZERO additional pushes
//      (the operation-count bound — a fresh run pays n) and to equal a
//      fresh k+delta run bit for bit.
//
// Output: a human table plus BENCH_streaming_select.json (bench_util).
//
//   bench_streaming_select [requests] [p50_tolerance]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/streaming_select.h"
#include "pipeline/testbed.h"
#include "querylog/popularity.h"
#include "serving/replay.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

struct SequentialRun {
  double wall_ms = 0;
  double qps = 0;
  serving::ServingStats stats;
  std::string metrics_json;
};

SequentialRun RunSequential(
    const std::shared_ptr<const store::StoreSnapshot>& snapshot,
    const pipeline::Testbed* testbed, serving::ServingConfig config,
    const std::vector<std::string>& mix) {
  serving::ServingNode node(snapshot, testbed, config);
  serving::ReplayOutcome out =
      serving::ReplaySequential(&node, mix, nullptr, nullptr);
  SequentialRun r;
  r.wall_ms = out.wall_ms;
  r.qps = out.qps;
  r.stats = node.Stats();
  node.Shutdown();
  r.metrics_json = node.metrics().RenderJson();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3000;
  // p50 gate: streaming_p50 <= materialized_p50 * tolerance. 0 disables
  // (sanitizer smokes); the default leaves headroom for timer noise on
  // loaded CI hosts while still catching a streaming path that lost its
  // advantage wholesale.
  double p50_tolerance = argc > 2 ? std::atof(argv[2]) : 1.25;

  std::printf("building testbed + plans-off store...\n");
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  // Plans off: compiled plans preempt the cold path on both nodes, and
  // the cold path is the thing being measured.
  store::StoreBuilderOptions store_opts;
  store_opts.compile_plans = false;
  store::DiversificationStore store;
  store::BuildStore(testbed.detector(), testbed.searcher(),
                    testbed.snippets(), testbed.analyzer(),
                    testbed.corpus().store, roots, store_opts, &store);
  std::shared_ptr<const store::StoreSnapshot> snapshot =
      bench::ImageSnapshot(store);

  util::Rng rng(77);
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      testbed.recommender().popularity(), num_requests, 1.0, &rng);

  serving::ServingConfig base;
  base.num_workers = 1;  // sequential replay: latency, not pool scaling
  base.queue_capacity = std::max<size_t>(64, num_requests);
  base.max_batch = 1;
  base.enable_cache = false;  // every request pays the cold path
  base.params.num_candidates = 200;
  base.params.diversify.k = 10;

  serving::ServingConfig streaming_config = base;
  streaming_config.streaming_cold_path = true;
  serving::ServingConfig materialized_config = base;
  materialized_config.streaming_cold_path = false;

  bench::BenchJsonWriter json("streaming_select");
  util::TablePrinter tp;
  tp.SetHeader({"phase", "wall ms", "QPS", "p50 ms", "p99 ms"});
  int exit_code = 0;

  // ---- phase 1: bit-identity over every distinct query ---------------
  size_t mismatches = 0;
  std::set<std::string> distinct(mix.begin(), mix.end());
  {
    util::WallTimer timer;
    serving::ServingNode streaming(snapshot, &testbed, streaming_config);
    serving::ServingNode materialized(snapshot, &testbed,
                                      materialized_config);
    size_t streamed = 0;
    for (const std::string& q : distinct) {
      serving::Response s = streaming.Submit(serving::Request(q));
      serving::Response m = materialized.Submit(serving::Request(q));
      if (s.ranking != m.ranking || s.diversified != m.diversified) {
        std::fprintf(stderr, "FATAL: streaming ranking diverged for '%s'\n",
                     q.c_str());
        ++mismatches;
      }
      if (s.streaming_served) ++streamed;
    }
    double wall_ms = timer.ElapsedMillis();
    if (streamed == 0) {
      std::fprintf(stderr,
                   "FATAL: no distinct query took the streaming cold "
                   "path — the bench measured nothing\n");
      ++mismatches;
    }
    std::printf("bit-identity: %zu distinct queries, %zu streamed, %zu "
                "mismatches\n",
                distinct.size(), streamed, mismatches);
    json.Add("bit-identity",
             {{"distinct", static_cast<double>(distinct.size())},
              {"streamed", static_cast<double>(streamed)},
              {"mismatches", static_cast<double>(mismatches)}},
             wall_ms,
             wall_ms > 0
                 ? 1000.0 * static_cast<double>(2 * distinct.size()) /
                       wall_ms
                 : 0.0);
    if (mismatches > 0) exit_code = 1;
  }

  // ---- phase 2: sequential cold-path p50 -----------------------------
  SequentialRun streaming_run =
      RunSequential(snapshot, &testbed, streaming_config, mix);
  SequentialRun materialized_run =
      RunSequential(snapshot, &testbed, materialized_config, mix);
  json.SetMetricsJson(streaming_run.metrics_json);

  auto add_run = [&](const std::string& name, const SequentialRun& r,
                     const char* backend, double failures) {
    tp.AddRow({name, util::TablePrinter::Num(r.wall_ms, 1),
               util::TablePrinter::Num(r.qps, 0),
               util::TablePrinter::Num(r.stats.p50_ms, 3),
               util::TablePrinter::Num(r.stats.p99_ms, 3)});
    json.Add(name,
             {{"requests", static_cast<double>(num_requests)},
              {"p50_ms", r.stats.p50_ms},
              {"p99_ms", r.stats.p99_ms},
              {"streaming_served",
               static_cast<double>(r.stats.streaming_served)},
              {"failures", failures}},
             r.wall_ms, r.qps, {{"backend", backend}});
  };

  double p50_failures = 0;
  double ratio = materialized_run.stats.p50_ms > 0
                     ? streaming_run.stats.p50_ms /
                           materialized_run.stats.p50_ms
                     : 1.0;
  if (p50_tolerance > 0 && ratio > p50_tolerance) {
    std::fprintf(stderr,
                 "FATAL: streaming p50 %.3f ms exceeds materialized "
                 "p50 %.3f ms by more than %.2fx\n",
                 streaming_run.stats.p50_ms,
                 materialized_run.stats.p50_ms, p50_tolerance);
    p50_failures = 1;
    exit_code = 1;
  }
  add_run("streaming cold-path", streaming_run, "streaming", p50_failures);
  add_run("materialized cold-path", materialized_run, "materialized", 0);
  std::printf("%s", tp.ToString().c_str());
  std::printf("cold-path p50: streaming %.3f ms vs materialized %.3f ms "
              "(%.2fx%s)\n",
              streaming_run.stats.p50_ms, materialized_run.stats.p50_ms,
              ratio,
              p50_tolerance > 0 ? "" : ", gate disabled");

  // ---- phase 3: Extend(k -> k+delta) on retained state ---------------
  {
    const size_t n = 20000;
    const size_t m = 8;
    const size_t k = 10;
    const size_t delta = 10;
    util::Rng extend_rng(41);
    bench::TimingInstance ti = bench::MakeTimingInstance(&extend_rng, n, m);
    std::vector<double> probs(m);
    for (size_t j = 0; j < m; ++j) {
      probs[j] = ti.input.specializations[j].probability;
    }
    auto push_all = [&](core::StreamingTopK* stream, size_t max_k) {
      stream->Begin(probs.data(), m, max_k, 0.15);
      for (size_t i = 0; i < n; ++i) {
        if (stream->CanPrune(ti.input.candidates[i].relevance)) {
          stream->Skip();
          continue;
        }
        // UtilityMatrix is row-major [candidate][specialization].
        stream->Push(i, ti.input.candidates[i].relevance,
                     ti.utilities.data() + i * m);
      }
    };

    core::StreamingTopK reserved;
    util::WallTimer stream_timer;
    push_all(&reserved, k + delta);
    double full_stream_ms = stream_timer.ElapsedMillis();

    std::vector<size_t> first_page;
    std::vector<size_t> widened;
    reserved.Finalize(k, &first_page);
    size_t pushes_before_extend = reserved.pushed();
    util::WallTimer extend_timer;
    reserved.Finalize(k + delta, &widened);
    double extend_ms = extend_timer.ElapsedMillis();
    size_t extend_pushes = reserved.pushed() - pushes_before_extend;

    core::StreamingTopK fresh;
    util::WallTimer fresh_timer;
    push_all(&fresh, k + delta);
    std::vector<size_t> fresh_widened;
    fresh.Finalize(k + delta, &fresh_widened);
    double fresh_ms = fresh_timer.ElapsedMillis();

    size_t extend_failures = 0;
    if (extend_pushes != 0) {
      std::fprintf(stderr,
                   "FATAL: Extend re-pushed %zu candidates; widening "
                   "must reuse retained state\n",
                   extend_pushes);
      ++extend_failures;
    }
    if (widened != fresh_widened) {
      std::fprintf(stderr,
                   "FATAL: Extend(k -> k+delta) != fresh k+delta run\n");
      ++extend_failures;
    }
    if (widened.size() <= first_page.size()) {
      std::fprintf(stderr, "FATAL: widening did not grow the page\n");
      ++extend_failures;
    }
    std::printf(
        "extend: n=%zu stream %.3f ms, Extend(%zu -> %zu) %.4f ms "
        "(0 pushes; fresh rerun %.3f ms)%s\n",
        n, full_stream_ms, k, k + delta, extend_ms, fresh_ms,
        extend_failures == 0 ? "" : " FAILED");
    json.Add("extend",
             {{"n", static_cast<double>(n)},
              {"k", static_cast<double>(k)},
              {"delta", static_cast<double>(delta)},
              {"stream_pushes", static_cast<double>(reserved.pushed())},
              {"extend_pushes", static_cast<double>(extend_pushes)},
              {"extend_us", extend_ms * 1000.0},
              {"fresh_us", fresh_ms * 1000.0},
              {"failures", static_cast<double>(extend_failures)}},
             full_stream_ms,
             full_stream_ms > 0
                 ? 1000.0 * static_cast<double>(n) / full_stream_ms
                 : 0.0);
    if (extend_failures > 0) exit_code = 1;
  }

  util::Status s = json.WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_streaming_select.json (%zu records)\n",
              json.size());
  return exit_code;
}
