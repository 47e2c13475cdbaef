// Compiled-plan serving (store v3) vs per-request computation (v2) —
// the offline/online split of Sections 3.1.3 / 4.1 pushed to its limit.
// Two ServingNodes answer the same Zipf mix over the same store content:
//
//   cold      — entries without plans; every diversified request pays
//               retrieval + snippet extraction + the O(n·m·|R_q′|)
//               cosine sums + selection;
//   compiled  — entries carry store-v3 query plans; requests run pure
//               selection over the precomputed utility blocks with a
//               per-worker scratch (no retrieval, no recompute, no
//               per-request allocation).
//
// Measured claims, all asserted, not just printed:
//
//   - every stored query's ranking is bit-identical between the two
//     paths (the plan compiler runs the fallback's exact code);
//   - compiled p50 latency beats cold p50;
//   - across a hot reload that re-mines ONE dirty entry (its plan is
//     the only one recompiled — this bench compiles exactly one), every
//     unchanged query keeps a bit-identical, still-plan-served ranking.
//
// Output: a human table plus BENCH_plan_serving.json (bench_util).
//
//   bench_plan_serving [requests] [zipf_skew]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pipeline/testbed.h"
#include "serving/latency_histogram.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

struct PhaseResult {
  double wall_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t failures = 0;
};

/// Replays `mix` against `node`, recording per-request latency locally.
PhaseResult RunPhase(serving::ServingNode* node,
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
    bool ok = node->SubmitAsync(
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

}  // namespace

int main(int argc, char** argv) {
  size_t num_requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  double skew = argc > 2 ? std::atof(argv[2]) : 1.0;

  std::printf("building testbed + stores...\n");
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }

  serving::ServingConfig config;
  config.queue_capacity = num_requests;
  config.max_batch = 8;
  config.enable_cache = false;  // isolate the compute path
  config.params.num_candidates = 200;
  config.params.diversify.k = 10;

  store::PlanCompileOptions plan_opts;
  plan_opts.num_candidates = config.params.num_candidates;
  plan_opts.threshold_c = config.params.threshold_c;

  // Same mined content, once without plans (the v2 serving behaviour),
  // once with (store v3). The detector is deterministic, so the two
  // stores differ only in the plan blocks.
  store::StoreBuilderOptions cold_opts;
  cold_opts.compile_plans = false;
  store::StoreBuilderOptions compiled_opts;
  compiled_opts.compile_plans = true;
  compiled_opts.plan = plan_opts;

  store::DiversificationStore cold_store, compiled_store;
  store::BuildStore(testbed.detector(), testbed.searcher(),
                    testbed.snippets(), testbed.analyzer(),
                    testbed.corpus().store, roots, cold_opts, &cold_store);
  store::BuildStore(testbed.detector(), testbed.searcher(),
                    testbed.snippets(), testbed.analyzer(),
                    testbed.corpus().store, roots, compiled_opts,
                    &compiled_store);
  if (compiled_store.size() < 2) {
    std::fprintf(stderr, "error: need >= 2 stored entries\n");
    return 1;
  }

  // The replay mix is Zipf over the *stored* queries: this bench
  // measures the diversified path, not passthrough retrieval (which is
  // identical in both configurations).
  std::vector<std::string> stored_keys;
  for (const auto& [key, entry] : compiled_store.entries()) {
    stored_keys.push_back(key);
  }
  std::sort(stored_keys.begin(), stored_keys.end());
  util::Rng rng(99);
  util::ZipfSampler sampler(stored_keys.size(), skew);
  std::vector<std::string> mix;
  mix.reserve(num_requests);
  for (size_t r = 0; r < num_requests; ++r) {
    mix.push_back(stored_keys[sampler.Sample(&rng)]);
  }

  serving::ServingNode cold_node(bench::ImageSnapshot(cold_store), &testbed,
                                 config);
  serving::ServingNode compiled_node(bench::ImageSnapshot(compiled_store),
                                     &testbed, config);

  // ---- bit-identical rankings across the two paths ------------------
  size_t mismatches = 0;
  size_t plan_served = 0;
  std::vector<std::vector<DocId>> references(stored_keys.size());
  for (size_t i = 0; i < stored_keys.size(); ++i) {
    serving::Response cold = cold_node.Submit(serving::Request(stored_keys[i]));
    serving::Response fast =
        compiled_node.Submit(serving::Request(stored_keys[i]));
    references[i] = fast.ranking;
    if (cold.ranking != fast.ranking) ++mismatches;
    if (fast.plan_served) ++plan_served;
  }
  std::printf("%zu stored queries: %zu plan-served, %zu mismatches\n",
              stored_keys.size(), plan_served, mismatches);

  // ---- latency phases ----------------------------------------------
  std::printf("replaying %zu requests (skew %.2f)...\n", num_requests,
              skew);
  PhaseResult cold = RunPhase(&cold_node, mix);
  PhaseResult compiled = RunPhase(&compiled_node, mix);

  // ---- hot reload recompiling only the dirty entry ------------------
  // Perturb one entry's specialization distribution (what a log refresh
  // does) and recompile *its* plan alone; every other entry rides along
  // untouched through the snapshot copy.
  const std::string& dirty_key = stored_keys.front();
  store::StoredEntry variant = *compiled_store.Find(dirty_key);
  double norm = 0;
  variant.specializations[0].probability *= 0.5;
  for (const auto& sp : variant.specializations) norm += sp.probability;
  for (auto& sp : variant.specializations) sp.probability /= norm;
  variant.plan = store::CompileQueryPlan(
      variant, testbed.searcher(), testbed.snippets(), testbed.analyzer(),
      testbed.corpus().store, plan_opts);  // the ONE recompile

  store::StoreDelta delta;
  delta.upserts.push_back(std::move(variant));
  std::shared_ptr<const store::StoreSnapshot> base =
      compiled_node.snapshot();
  store::SnapshotBuildResult built =
      store::BuildSnapshot(base.get(), delta);
  compiled_node.ReloadStore(built.snapshot, built.changed_keys);

  size_t reload_mismatches = 0;
  size_t reload_plan_served = 0;
  for (size_t i = 0; i < stored_keys.size(); ++i) {
    serving::Response r =
        compiled_node.Submit(serving::Request(stored_keys[i]));
    if (r.plan_served) ++reload_plan_served;
    if (stored_keys[i] == dirty_key) continue;  // legitimately changed
    if (r.ranking != references[i]) ++reload_mismatches;
  }
  PhaseResult after_reload = RunPhase(&compiled_node, mix);

  // ---- report -------------------------------------------------------
  util::TablePrinter tp;
  tp.SetHeader({"phase", "wall ms", "QPS", "p50 ms", "p99 ms",
                "failures"});
  auto row = [&](const char* name, const PhaseResult& r) {
    tp.AddRow({name, util::TablePrinter::Num(r.wall_ms, 1),
               util::TablePrinter::Num(r.qps, 0),
               util::TablePrinter::Num(r.p50_ms, 3),
               util::TablePrinter::Num(r.p99_ms, 3),
               std::to_string(r.failures)});
  };
  row("cold_v2", cold);
  row("compiled_v3", compiled);
  row("compiled_after_reload", after_reload);
  std::printf("%s", tp.ToString().c_str());
  double speedup =
      compiled.p50_ms > 0 ? cold.p50_ms / compiled.p50_ms : 0.0;
  std::printf("p50 speedup: %.1fx\n", speedup);

  bench::BenchJsonWriter json("plan_serving");
  auto record = [&](const char* name, const PhaseResult& r) {
    json.Add(name,
             {{"requests", static_cast<double>(num_requests)},
              {"zipf_skew", skew},
              {"stored_queries", static_cast<double>(stored_keys.size())},
              {"failures", static_cast<double>(r.failures)},
              {"p50_ms", r.p50_ms},
              {"p99_ms", r.p99_ms}},
             r.wall_ms, r.qps);
  };
  record("cold_v2", cold);
  record("compiled_v3", compiled);
  record("compiled_after_reload", after_reload);
  // Context block: the measured node's full registry (counters, cache,
  // stage histograms). Never gated on.
  json.SetMetricsJson(compiled_node.metrics().RenderJson());
  util::Status s = json.WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_plan_serving.json (%zu records)\n", json.size());

  // ---- asserted claims ---------------------------------------------
  if (cold.failures + compiled.failures + after_reload.failures > 0) {
    std::fprintf(stderr, "FATAL: failed requests\n");
    return 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FATAL: %zu rankings diverged between the cold and "
                 "compiled paths\n",
                 mismatches);
    return 1;
  }
  if (plan_served != stored_keys.size()) {
    std::fprintf(stderr, "FATAL: only %zu/%zu stored queries plan-served\n",
                 plan_served, stored_keys.size());
    return 1;
  }
  if (reload_mismatches > 0) {
    std::fprintf(stderr,
                 "FATAL: %zu unchanged rankings diverged across the "
                 "dirty-only reload\n",
                 reload_mismatches);
    return 1;
  }
  if (reload_plan_served != stored_keys.size()) {
    std::fprintf(stderr,
                 "FATAL: only %zu/%zu queries plan-served after reload\n",
                 reload_plan_served, stored_keys.size());
    return 1;
  }
  if (compiled.p50_ms >= cold.p50_ms) {
    std::fprintf(stderr,
                 "FATAL: compiled p50 %.3f ms did not beat cold p50 "
                 "%.3f ms\n",
                 compiled.p50_ms, cold.p50_ms);
    return 1;
  }
  std::printf("bit-identical rankings, dirty-only reload clean, "
              "compiled p50 beats cold: OK\n");
  return 0;
}
