// optselect — command-line front end for the library.
//
// Subcommands: generate, mine, run, evaluate (the offline experiment
// loop), upgrade (converts a v1–v3 store.bin to v4), and serve,
// loadtest, stats, chaos (the serving tier). Each one
// declares its flags once through tools/options.h: `optselect` alone
// lists the subcommands, `optselect <subcommand> --help` prints the
// generated flag list, and a bad flag or value exits with status 2
// before any work starts.

#include <csignal>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/query_router.h"
#include "cluster/sharded_cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/factory.h"
#include "eval/diversity_evaluator.h"
#include "eval/trec_io.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "querylog/popularity.h"
#include "querylog/query_flow_graph.h"
#include "querylog/session_segmenter.h"
#include "recommend/ambiguity_detector.h"
#include "recommend/shortcuts_recommender.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serving/cache_key.h"
#include "serving/frontend.h"
#include "serving/replay.h"
#include "serving/serving_node.h"
#include "serving/store_refresher.h"
#include "tools/options.h"
#include "util/hash.h"
#include "store/diversification_store.h"
#include "store/legacy_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

// ------------------------------------------------------------ options
//
// Each subcommand declares its typed flag surface once; help text,
// validation, and defaults all derive from these declarations.

tools::OptionSet GenerateOptions() {
  tools::OptionSet opts("generate", "<dir>",
                        "Build the synthetic testbed artifacts: log.tsv, "
                        "topics.tsv, qrels.txt, and store.bin with "
                        "compiled query plans for the serving fast path.");
  opts.Group("compiled plans (must match the serving flags)");
  opts.AddInt("candidates", 200, "|R_q| the plans are compiled at");
  opts.AddDouble("c", 0.3, "utility threshold the plans are compiled at");
  opts.AddBool("plans", true,
               "compile plans (0: stored queries are computed per "
               "request)");
  tools::AddTestbedOptions(&opts);
  return opts;
}

tools::OptionSet UpgradeOptions() {
  return tools::OptionSet("upgrade", "<in> <out>",
                          "Convert a store.bin in the v1-v3 stream formats "
                          "to store format v4, the only one serving reads "
                          "(same content; plans as the file has them).");
}

tools::OptionSet MineOptions() {
  tools::OptionSet opts("mine", "<log.tsv>",
                        "Run Algorithm 1 over a query log and print every "
                        "detected ambiguous query with its "
                        "specializations.");
  opts.AddInt("min-freq", 20, "popularity floor f(q)");
  return opts;
}

tools::OptionSet RunOptions() {
  tools::OptionSet opts("run", "<dir> <out.run>",
                        "Regenerate the testbed from the testbed flags "
                        "(<dir> is not read), diversify every topic, and "
                        "write a TREC run file.");
  opts.Group("diversification");
  opts.AddChoice("algo", "optselect", core::AvailableDiversifiers(),
                 "diversification algorithm");
  opts.AddDouble("c", 0.3, "utility threshold c");
  opts.AddDouble("lambda", 0.15, "trade-off lambda");
  opts.AddInt("k", 1000, "ranking depth");
  tools::AddTestbedOptions(&opts);
  return opts;
}

tools::OptionSet EvaluateOptions() {
  return tools::OptionSet("evaluate", "<dir> <run...>",
                          "Score run files against <dir>/topics.tsv and "
                          "<dir>/qrels.txt (alpha-NDCG and IA-P at "
                          "5/10/20).");
}

tools::OptionSet ServeOptions() {
  tools::OptionSet opts("serve", "<dir>",
                        "Serving node over <dir>/store.bin: interactive "
                        "REPL, or a wire-protocol TCP server with "
                        "--listen.");
  tools::AddServingOptions(&opts, /*trace_every=*/1);
  tools::AddMapOptions(&opts);
  tools::AddClusterOptions(&opts);
  tools::AddRefreshOptions(&opts);
  tools::AddListenOptions(&opts);
  tools::AddTestbedOptions(&opts);
  return opts;
}

tools::OptionSet LoadtestOptions() {
  tools::OptionSet opts("loadtest", "<dir>",
                        "Replay a Zipf query mix (in-process, or against "
                        "remote shard servers with --connect) and print "
                        "serving stats.");
  opts.Group("replay");
  opts.AddInt("requests", 5000, "replay size", 1);
  opts.AddDouble("skew", 1.0, "Zipf skew");
  opts.AddString("metrics-out", "",
                 "write the Prometheus text exposition here during and "
                 "after the replay");
  tools::AddServingOptions(&opts, /*trace_every=*/64);
  tools::AddMapOptions(&opts);
  tools::AddClusterOptions(&opts);
  tools::AddRefreshOptions(&opts);
  tools::AddConnectOptions(&opts);
  tools::AddTestbedOptions(&opts);
  return opts;
}

tools::OptionSet StatsOptions() {
  tools::OptionSet opts("stats", "<dir>",
                        "Deterministic sequential replay, then the full "
                        "metrics dump (stage breakdown, counters, "
                        "traces).");
  opts.Group("replay");
  opts.AddInt("requests", 2000, "replay size", 1);
  opts.AddDouble("skew", 1.0, "Zipf skew");
  opts.AddChoice("format", "table", {"table", "prom", "json"},
                 "output format");
  // Cache off by default (unlike serve/loadtest): a cache hit skips
  // store-read and select, and the stage-sum identity only holds when
  // every request runs the same stages.
  tools::AddServingOptions(&opts, /*trace_every=*/16, /*cache=*/false);
  tools::AddTestbedOptions(&opts);
  return opts;
}

tools::OptionSet ChaosOptions() {
  tools::OptionSet opts(
      "chaos", "",
      "Deterministic fault-injection scenario over the fault-tolerant "
      "cluster path (in-process), or — with --net <dir> — over spawned "
      "shard server processes (SIGKILL + respawn).");
  // Something must stay alive while something dies: at least two
  // shards and enough requests to span the fault schedule.
  opts.Group("scenario");
  opts.AddInt("requests", 4000, "replay size (--net default 400)", 64);
  opts.AddDouble("skew", 1.0, "Zipf skew");
  opts.AddInt("shards", 3, "cluster size (--net default 2)", 2,
              tools::kMaxThreads);
  opts.AddInt("replicate-hot", 2,
              "replicate the K hottest stored queries onto every shard "
              "(the hedge check needs replicas)");
  const double max_ms = tools::kMaxDurationSeconds * 1000.0;
  opts.AddDouble("hedge-ms", 2, "hedge delay (in-process mode)", 0, max_ms);
  opts.AddDouble("slow-ms", 20, "injected slow-read delay (in-process)", 0,
                 max_ms);
  opts.AddString("net", "",
                 "process-level mode: spawn shard servers over this "
                 "generated <dir> and kill one mid-replay");
  tools::AddServingOptions(&opts, /*trace_every=*/16);
  tools::AddTestbedOptions(&opts);
  return opts;
}

pipeline::TestbedConfig ConfigFor(const tools::OptionSet& opts) {
  pipeline::TestbedConfig config = pipeline::TestbedConfig::TrecShaped();
  const uint64_t seed = static_cast<uint64_t>(opts.GetInt("seed"));
  config.universe.num_topics = opts.GetSize("topics");
  config.universe.seed = seed;
  config.corpus.seed = seed + 1;
  config.log.seed = seed + 2;
  return config;
}

// ------------------------------------------------- offline subcommands

int CmdGenerate(const tools::OptionSet& opts) {
  const std::string& dir = opts.positional()[0];
  // Create <dir> and its parents before the build, so a path that
  // cannot be created fails at once instead of after the whole testbed.
  std::error_code mkdir_error;
  std::filesystem::create_directories(dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "error: cannot create directory %s: %s\n",
                 dir.c_str(), mkdir_error.message().c_str());
    return 1;
  }
  std::printf("building testbed...\n");
  pipeline::Testbed testbed(ConfigFor(opts));

  auto check = [](const util::Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  };
  check(testbed.log_result().log.SaveTsv(dir + "/log.tsv"));
  check(eval::SaveTopics(testbed.corpus().topics, dir + "/topics.tsv"));
  check(eval::SaveQrels(testbed.corpus().qrels, testbed.corpus().topics,
                        dir + "/qrels.txt"));

  store::DiversificationStore built;
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  // Plans must be compiled at the exact (candidates, c) pair the node
  // will serve with; defaults mirror the `serve`/`loadtest` defaults.
  store::StoreBuilderOptions options;
  options.compile_plans = opts.GetBool("plans");
  options.plan.num_candidates = opts.GetSize("candidates");
  options.plan.threshold_c = opts.GetDouble("c");
  size_t stored = store::BuildStore(
      testbed.detector(), testbed.searcher(), testbed.snippets(),
      testbed.analyzer(), testbed.corpus().store, roots, options, &built);
  check(built.Save(dir + "/store.bin"));

  size_t plans = 0;
  for (const auto& [key, entry] : built.entries()) {
    if (!entry.plan.empty()) ++plans;
  }
  std::printf(
      "wrote %s/log.tsv (%zu records), topics.tsv (%zu topics), "
      "qrels.txt (%zu judgments), store.bin (%zu entries, %zu compiled "
      "plans, %s payload)\n",
      dir.c_str(), testbed.log_result().log.size(),
      testbed.corpus().topics.size(), testbed.corpus().qrels.size(), stored,
      plans, util::FormatBytes(built.SurrogatePayloadBytes()).c_str());
  return 0;
}

int CmdUpgrade(const tools::OptionSet& opts) {
  const std::string& in = opts.positional()[0];
  const std::string& out = opts.positional()[1];
  auto legacy = store::ReadLegacyStore(in);
  if (!legacy.ok()) {
    std::fprintf(stderr, "error: %s\n", legacy.status().ToString().c_str());
    return 1;
  }
  const store::DiversificationStore& converted = legacy.value();
  util::Status saved = converted.Save(out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  size_t plans = 0;
  for (const auto& [key, entry] : converted.entries()) {
    if (!entry.plan.empty()) ++plans;
  }
  std::printf(
      "wrote %s (store format v4, content version %llu, %zu entries, %zu "
      "compiled plans)\n",
      out.c_str(), static_cast<unsigned long long>(converted.version()),
      converted.size(), plans);
  return 0;
}

int CmdMine(const tools::OptionSet& opts) {
  auto log = querylog::QueryLog::LoadTsv(opts.positional()[0]);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s\n", log.status().ToString().c_str());
    return 1;
  }
  const uint64_t min_freq = static_cast<uint64_t>(opts.GetInt("min-freq"));

  querylog::QueryFlowGraph graph =
      querylog::QueryFlowGraph::Build(log.value(), {});
  std::vector<querylog::Session> sessions =
      querylog::SessionSegmenter().Segment(log.value(), &graph);
  recommend::ShortcutsRecommender recommender;
  recommender.Train(log.value(), sessions);
  recommend::AmbiguityDetector detector(&recommender);

  std::printf("log: %zu records, %zu sessions, %zu distinct queries\n",
              log.value().size(), sessions.size(),
              recommender.popularity().distinct());
  size_t ambiguous = 0;
  for (const auto& [query, freq] : recommender.popularity().counts()) {
    if (freq < min_freq) continue;
    recommend::SpecializationSet set = detector.Detect(query);
    if (!set.ambiguous()) continue;
    ++ambiguous;
    std::printf("%-20s f=%-6llu", query.c_str(),
                static_cast<unsigned long long>(freq));
    for (const auto& sp : set.items) {
      std::printf(" %s(%.2f)", sp.query.c_str(), sp.probability);
    }
    std::printf("\n");
  }
  std::printf("%zu ambiguous queries (f >= %llu)\n", ambiguous,
              static_cast<unsigned long long>(min_freq));
  return 0;
}

int CmdRun(const tools::OptionSet& opts) {
  // --algo's choices are AvailableDiversifiers(), which MakeDiversifier
  // all accepts.
  std::unique_ptr<core::Diversifier> algo =
      std::move(core::MakeDiversifier(opts.GetString("algo"))).value();

  std::printf("rebuilding testbed...\n");
  pipeline::Testbed testbed(ConfigFor(opts));
  pipeline::PipelineParams params;
  params.num_candidates = 1000;
  params.threshold_c = opts.GetDouble("c");
  params.diversify.lambda = opts.GetDouble("lambda");
  params.diversify.k = opts.GetSize("k");
  pipeline::DiversificationPipeline pipe(&testbed, params);

  // The run is named after --c as typed (e.g. "OptSelect-c0.3").
  eval::Run run;
  run.name = algo->name() + "-c" + opts.GetString("c");
  for (const corpus::TrecTopic& topic : testbed.corpus().topics.topics()) {
    run.rankings[topic.id] = pipe.Run(topic.query, *algo).ranking;
  }
  const std::string& out_path = opts.positional()[1];
  util::Status s = eval::SaveRun(run, out_path);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu topics)\n", out_path.c_str(),
              run.rankings.size());
  return 0;
}

int CmdEvaluate(const tools::OptionSet& opts) {
  const std::vector<std::string>& args = opts.positional();
  const std::string& dir = args[0];
  auto topics = eval::LoadTopics(dir + "/topics.tsv");
  if (!topics.ok()) {
    std::fprintf(stderr, "error: %s\n", topics.status().ToString().c_str());
    return 1;
  }
  auto qrels = eval::LoadQrels(dir + "/qrels.txt");
  if (!qrels.ok()) {
    std::fprintf(stderr, "error: %s\n", qrels.status().ToString().c_str());
    return 1;
  }

  eval::DiversityEvaluator::Options opt;
  opt.cutoffs = {5, 10, 20};
  eval::DiversityEvaluator evaluator(&topics.value(), &qrels.value(), opt);
  util::TablePrinter tp;
  tp.SetHeader({"run", "aN@5", "aN@10", "aN@20", "IA@5", "IA@10", "IA@20"});
  for (size_t i = 1; i < args.size(); ++i) {
    auto run = eval::LoadRun(args[i]);
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
      return 1;
    }
    eval::MetricRow row = evaluator.Evaluate(run.value());
    tp.AddRow({row.run_name, util::TablePrinter::Num(row.alpha_ndcg[5], 3),
               util::TablePrinter::Num(row.alpha_ndcg[10], 3),
               util::TablePrinter::Num(row.alpha_ndcg[20], 3),
               util::TablePrinter::Num(row.ia_precision[5], 3),
               util::TablePrinter::Num(row.ia_precision[10], 3),
               util::TablePrinter::Num(row.ia_precision[20], 3)});
  }
  std::printf("%s", tp.ToString().c_str());
  return 0;
}

// ------------------------------------------------ serving subcommands

/// The per-node serving knobs (tools::AddServingOptions) as a config.
serving::ServingConfig ServingConfigFor(const tools::OptionSet& opts) {
  serving::ServingConfig config;
  config.num_workers = opts.GetSize("workers");
  config.max_batch = opts.GetSize("batch");
  config.enable_cache = opts.GetBool("cache");
  config.cache.capacity = opts.GetSize("cache-capacity");
  config.params.num_candidates = opts.GetSize("candidates");
  config.params.threshold_c = opts.GetDouble("c");
  config.params.diversify.lambda = opts.GetDouble("lambda");
  config.params.diversify.k = opts.GetSize("k");
  return config;
}

void PrintServingStats(const serving::ServingStats& s) {
  util::TablePrinter tp;
  tp.SetHeader({"metric", "value"});
  tp.AddRow({"uptime s", util::TablePrinter::Num(s.uptime_seconds, 1)});
  tp.AddRow({"completed", std::to_string(s.completed)});
  tp.AddRow({"rejected", std::to_string(s.rejected)});
  tp.AddRow({"QPS", util::TablePrinter::Num(s.qps, 0)});
  tp.AddRow({"p50 ms", util::TablePrinter::Num(s.p50_ms, 2)});
  tp.AddRow({"p95 ms", util::TablePrinter::Num(s.p95_ms, 2)});
  tp.AddRow({"p99 ms", util::TablePrinter::Num(s.p99_ms, 2)});
  tp.AddRow({"diversified", std::to_string(s.diversified)});
  tp.AddRow({"plan served", std::to_string(s.plan_served)});
  tp.AddRow({"streaming served", std::to_string(s.streaming_served)});
  tp.AddRow({"passthrough", std::to_string(s.passthrough)});
  tp.AddRow({"cache hit rate", util::TablePrinter::Num(s.cache_hit_rate, 3)});
  tp.AddRow({"cache entries", std::to_string(s.cache_entries)});
  tp.AddRow({"cache evictions", std::to_string(s.cache_evictions)});
  tp.AddRow({"mean batch", util::TablePrinter::Num(s.mean_batch, 2)});
  tp.AddRow({"batch dedup hits", std::to_string(s.batch_dedup_hits)});
  tp.AddRow({"store version", std::to_string(s.store_version)});
  tp.AddRow({"store reloads", std::to_string(s.reloads)});
  tp.AddRow({"cache invalidations", std::to_string(s.cache_invalidations)});
  if (s.faulted > 0 || s.reload_failures > 0) {
    tp.AddRow({"injected faults", std::to_string(s.faulted)});
    tp.AddRow({"reload failures", std::to_string(s.reload_failures)});
  }
  std::printf("%s", tp.ToString().c_str());
}

/// Per-stage latency breakdown from the registry's stage histograms,
/// merged across label sets (shards). The reply stage is excluded from
/// the p50 sum because the node's e2e latency is recorded *before* the
/// completion callback runs — both sides of the comparison leave it
/// out.
void PrintStageBreakdown(const obs::MetricsRegistry& registry) {
  serving::LatencyHistogram e2e;
  for (const auto& [labels, hist] :
       registry.HistogramsNamed("optselect_request_latency_seconds")) {
    e2e.MergeFrom(*hist);
  }
  auto stage_hists =
      registry.HistogramsNamed("optselect_stage_latency_seconds");

  util::TablePrinter tp;
  tp.SetHeader({"stage", "count", "p50 ms", "p95 ms", "p99 ms", "mean ms"});
  double p50_sum_ms = 0.0;
  static const char* kStages[] = {"queue_wait", "cache_lookup",
                                  "store_read", "select", "reply",
                                  "scan",       "maintain"};
  for (const char* stage : kStages) {
    serving::LatencyHistogram merged;
    for (const auto& [labels, hist] : stage_hists) {
      for (const auto& [key, value] : labels) {
        if (key == "stage" && value == stage) merged.MergeFrom(*hist);
      }
    }
    double p50_ms = merged.PercentileMicros(0.50) / 1000.0;
    // reply is excluded (see above); scan/maintain are sub-spans of
    // select and would double-count it.
    if (std::strcmp(stage, "reply") != 0 &&
        std::strcmp(stage, "scan") != 0 &&
        std::strcmp(stage, "maintain") != 0) {
      p50_sum_ms += p50_ms;
    }
    tp.AddRow({stage, std::to_string(merged.count()),
               util::TablePrinter::Num(p50_ms, 3),
               util::TablePrinter::Num(merged.PercentileMicros(0.95) / 1000.0,
                                       3),
               util::TablePrinter::Num(merged.PercentileMicros(0.99) / 1000.0,
                                       3),
               util::TablePrinter::Num(merged.MeanMicros() / 1000.0, 3)});
  }
  tp.AddRow({"e2e total", std::to_string(e2e.count()),
             util::TablePrinter::Num(e2e.PercentileMicros(0.50) / 1000.0, 3),
             util::TablePrinter::Num(e2e.PercentileMicros(0.95) / 1000.0, 3),
             util::TablePrinter::Num(e2e.PercentileMicros(0.99) / 1000.0, 3),
             util::TablePrinter::Num(e2e.MeanMicros() / 1000.0, 3)});
  std::printf("%s", tp.ToString().c_str());
  std::printf(
      "stage p50 sum (queue+cache+store+select) = %.3f ms, e2e p50 = "
      "%.3f ms\n",
      p50_sum_ms, e2e.PercentileMicros(0.50) / 1000.0);
}

/// The slow-query log plus the tail of the trace ring.
void PrintTraces(const obs::Tracer& tracer) {
  std::vector<obs::Trace> slow = tracer.Slowest();
  std::printf("slow-query log (%zu of %llu committed traces):\n",
              slow.size(),
              static_cast<unsigned long long>(tracer.committed()));
  for (const obs::Trace& trace : slow) {
    std::printf("%s", obs::Tracer::Format(trace).c_str());
  }
  std::vector<obs::Trace> recent = tracer.Recent();
  size_t tail = std::min<size_t>(recent.size(), 4);
  if (tail > 0) {
    std::printf("most recent %zu sampled traces:\n", tail);
    for (size_t i = recent.size() - tail; i < recent.size(); ++i) {
      std::printf("%s", obs::Tracer::Format(recent[i]).c_str());
    }
  }
}

/// The subcommand's tracer: deterministic 1-in-N sampling, N =
/// --trace-every.
std::unique_ptr<obs::Tracer> MakeTracer(const tools::OptionSet& opts) {
  obs::TracerConfig config;
  config.sample_every = static_cast<uint64_t>(opts.GetInt("trace-every"));
  return std::make_unique<obs::Tracer>(config);
}

/// Builds (and starts) the refresh loop when --refresh-interval > 0.
/// Returns nullptr when refresh is disabled. `shard_index` >= 0 marks a
/// cluster shard's refresher: the mined delta is filtered to the keys
/// the shard holds, and the persist path (if any) gets a per-shard
/// suffix so shards never clobber each other's snapshots.
std::unique_ptr<serving::StoreRefresher> MakeRefresher(
    const tools::OptionSet& opts, const std::string& dir,
    serving::ServingNode* node, const pipeline::Testbed& testbed,
    std::function<bool(const std::string&)> key_filter = nullptr,
    int shard_index = -1) {
  double interval_s = opts.GetDouble("refresh-interval");
  if (interval_s <= 0) return nullptr;
  serving::StoreRefresherConfig rc;
  rc.log_path = opts.IsSet("log-tail") ? opts.GetString("log-tail")
                                       : dir + "/log.tsv";
  rc.interval = std::chrono::milliseconds(
      static_cast<long long>(interval_s * 1000.0));
  rc.persist_path = opts.GetString("store-persist");
  if (!rc.persist_path.empty() && shard_index >= 0) {
    rc.persist_path += ".shard" + std::to_string(shard_index);
  }
  rc.key_filter = std::move(key_filter);
  auto refresher = std::make_unique<serving::StoreRefresher>(
      node, &testbed.searcher(), &testbed.snippets(), &testbed.analyzer(),
      &testbed.corpus().store, testbed.log_result().log, rc);
  refresher->Start();
  if (shard_index <= 0) {
    std::printf(
        "store refresh: tailing %s every %.1fs (offset %llu)%s\n",
        rc.log_path.c_str(), interval_s,
        static_cast<unsigned long long>(refresher->ingestor().offset()),
        shard_index == 0 ? " [one refresher per shard]" : "");
  }
  return refresher;
}

void PrintRefresherStats(const serving::StoreRefresher& refresher) {
  serving::StoreRefresherStats rs = refresher.stats();
  std::printf(
      "refresh: %llu ticks, %llu records ingested, %llu swaps "
      "(%llu upserts, %llu removals), store version %llu, %llu errors\n",
      static_cast<unsigned long long>(rs.ticks),
      static_cast<unsigned long long>(rs.ingested_records),
      static_cast<unsigned long long>(rs.swaps),
      static_cast<unsigned long long>(rs.upserts),
      static_cast<unsigned long long>(rs.removals),
      static_cast<unsigned long long>(rs.store_version),
      static_cast<unsigned long long>(rs.errors));
}

/// The router's failover-path counters — one line, shared by the
/// in-process cluster and the `chaos --net` remote fleet.
void PrintFailoverStats(const cluster::RouterStats& rs) {
  std::printf(
      "failover: %llu serves, %llu retried, %llu degraded, %llu "
      "dropped, %llu/%llu hedges won/launched, %llu probes, %llu "
      "breaker opens\n",
      static_cast<unsigned long long>(rs.failover_serves),
      static_cast<unsigned long long>(rs.retried),
      static_cast<unsigned long long>(rs.degraded),
      static_cast<unsigned long long>(rs.dropped),
      static_cast<unsigned long long>(rs.hedges_won),
      static_cast<unsigned long long>(rs.hedges_launched),
      static_cast<unsigned long long>(rs.probes),
      static_cast<unsigned long long>(rs.breaker_opens));
}

void PrintClusterStats(const cluster::ClusterStats& cs) {
  PrintServingStats(cs.total);
  util::TablePrinter tp;
  tp.SetHeader({"shard", "routed", "completed", "diversified", "plan",
                "hit rate", "p99 ms", "store ver"});
  for (size_t i = 0; i < cs.per_shard.size(); ++i) {
    const serving::ServingStats& s = cs.per_shard[i];
    tp.AddRow({std::to_string(i), std::to_string(cs.router.per_shard[i]),
               std::to_string(s.completed), std::to_string(s.diversified),
               std::to_string(s.plan_served),
               util::TablePrinter::Num(s.cache_hit_rate, 3),
               util::TablePrinter::Num(s.p99_ms, 2),
               std::to_string(s.store_version)});
  }
  std::printf("%s", tp.ToString().c_str());
  std::printf("router: %llu routed (%llu via hot replicas)\n",
              static_cast<unsigned long long>(cs.router.routed),
              static_cast<unsigned long long>(cs.router.replicated_routed));
  if (cs.router.failover_serves > 0) PrintFailoverStats(cs.router);
}

/// Builds a cluster (when --shards > 1) plus its per-shard refreshers;
/// every shard is a zero-copy view over the one `mapped` store.
std::unique_ptr<cluster::ShardedCluster> MakeCluster(
    const tools::OptionSet& opts, const std::string& dir,
    std::shared_ptr<const store::MappedStoreFile> mapped,
    const pipeline::Testbed& testbed,
    const serving::ServingConfig& serving_config,
    std::vector<std::unique_ptr<serving::StoreRefresher>>* refreshers) {
  size_t shards = opts.GetSize("shards");
  if (shards <= 1) return nullptr;
  cluster::ClusterConfig cc;
  cc.num_shards = shards;
  cc.replicate_hot = opts.GetSize("replicate-hot");
  cc.node = serving_config;
  auto cl = std::make_unique<cluster::ShardedCluster>(
      std::move(mapped), &testbed, &testbed.recommender().popularity(), cc);
  for (size_t i = 0; i < cl->num_shards(); ++i) {
    // Each shard refreshes independently, applying only the slice of
    // the mined delta it holds (owner or hot replica).
    store::ShardFilter filter = cl->filter(i);
    auto refresher = MakeRefresher(
        opts, dir, cl->shard(i), testbed,
        [filter = std::move(filter)](const std::string& key) {
          return filter.Keeps(key);
        },
        static_cast<int>(i));
    if (refresher != nullptr) refreshers->push_back(std::move(refresher));
  }
  std::printf(
      "cluster: %zu shards (%zu workers each), %zu hot keys replicated\n",
      cl->num_shards(), cl->shard(0)->config().num_workers,
      cl->replicated_keys().size());
  return cl;
}

/// The one store open shared by every serving entry (serve, loadtest,
/// stats). <dir>/store.bin must map as store format v4: any other
/// bytes, a v1–v3 stream included, fail MappedStoreFile::Map and stop
/// start-up (null) with an error naming `optselect upgrade`. A file
/// whose compiled plans match this node's --candidates/--c is served
/// zero-copy. One with plans for other params is materialized, gets
/// plans compiled for this node, and is served from an in-memory v4
/// image (MappedStoreFile::FromStore), so every node, shard and slice
/// downstream takes the same mapped shape. `warmup_flag` is a
/// --map-warmup value; progress lines go to `log`.
std::shared_ptr<const store::MappedStoreFile> OpenStoreForServing(
    const std::string& dir, const pipeline::Testbed& testbed,
    const serving::ServingConfig& config, const std::string& warmup_flag,
    std::FILE* log) {
  const std::string path = dir + "/store.bin";
  const size_t candidates = config.params.num_candidates;
  const double c = config.params.threshold_c;
  auto file = store::MappedStoreFile::Map(path);
  if (!file.ok()) {
    if (file.status().code() == util::StatusCode::kIoError) {
      std::fprintf(stderr, "error: %s (run `optselect generate %s` first)\n",
                   file.status().ToString().c_str(), dir.c_str());
    } else {
      std::fprintf(stderr,
                   "error: %s: %s; serving reads store format v4 only "
                   "(convert a v1-v3 store with `optselect upgrade <in> "
                   "<out>`, or regenerate it)\n",
                   path.c_str(), file.status().ToString().c_str());
    }
    return nullptr;
  }
  std::shared_ptr<const store::MappedStoreFile> mapped =
      std::move(file).value();

  const double mib_scale = 1.0 / (1024.0 * 1024.0);
  const size_t missing = mapped->MissingPlanCount(candidates, c);
  if (missing == 0) {
    std::fprintf(log, "store mapped zero-copy (v4, %zu entries, %.1f MiB)\n",
                 mapped->entry_count(), mapped->mapped_bytes() * mib_scale);
  } else {
    store::DiversificationStore heap = mapped->Materialize();
    store::PlanCompileOptions plan;
    plan.num_candidates = candidates;
    plan.threshold_c = c;
    const size_t compiled = store::CompilePlans(
        &heap, testbed.searcher(), testbed.snippets(), testbed.analyzer(),
        testbed.corpus().store, plan);
    auto image = store::MappedStoreFile::FromStore(heap);
    if (!image.ok()) {
      std::fprintf(stderr, "error: %s\n", image.status().ToString().c_str());
      return nullptr;
    }
    mapped = std::move(image).value();
    std::fprintf(log,
                 "store served from an in-memory v4 image: %zu entries "
                 "lack plans for these params (regenerate with matching "
                 "flags to serve the file zero-copy); compiled %zu query "
                 "plans for candidates=%zu c=%.2f (%zu entries, %.1f "
                 "MiB)\n",
                 missing, compiled, candidates, c, mapped->entry_count(),
                 mapped->mapped_bytes() * mib_scale);
  }

  // --map-warmup is declared with exactly ParseMapWarmup's values.
  store::MapWarmup warmup = store::MapWarmup::kNone;
  store::ParseMapWarmup(warmup_flag, &warmup);
  if (warmup != store::MapWarmup::kNone) {
    store::MapWarmupOutcome w = mapped->Warm(warmup);
    const char* applied = w.applied == store::MapWarmup::kMlock ? "mlock"
                          : w.applied == store::MapWarmup::kMadvise
                              ? "madvise(MADV_WILLNEED)"
                              : "none";
    if (w.fell_back) {
      std::fprintf(log, "map warm-up: %s refused (%s); applied %s\n",
                   warmup_flag.c_str(), w.detail.c_str(), applied);
    } else {
      std::fprintf(log, "map warm-up: %s over %.1f MiB\n", applied,
                   mapped->mapped_bytes() * mib_scale);
    }
  }
  return mapped;
}

/// Set by SIGINT/SIGTERM: the network serve loop drains and exits.
volatile std::sig_atomic_t g_shutdown_requested = 0;
void OnShutdownSignal(int) { g_shutdown_requested = 1; }

/// Atomically replaces `path` with `text` (tmp + checked close +
/// rename), so a poller (chaos --net, the CI smoke script, a metrics
/// scraper) never reads an empty or half-written file.
bool WriteFileAtomic(const std::string& path, const std::string& text) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose flushes — ENOSPC surfaces here, not at fwrite; both must
  // succeed or the poller could rename-in a truncated file.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());  // never leak the tmp next to a stale file
    return false;
  }
  return true;
}

int CmdServe(const tools::OptionSet& opts) {
  const std::string& dir = opts.positional()[0];

  const bool net_mode = opts.GetInt("listen") >= 0;
  // A shard process of a fleet serves only its slice of the store —
  // the same FNV-1a partition ShardedCluster applies in process, so a
  // remote fleet and a local cluster pick identical owners. The slice
  // is a MappedShard *view* of the opened mapping (for a store.bin
  // served zero-copy, every process on the host shares its pages).
  long long shard_index = opts.GetInt("shard-index");
  size_t num_shards = opts.GetSize("num-shards");
  const bool sliced = shard_index >= 0 && num_shards > 1;
  if (sliced && static_cast<size_t>(shard_index) >= num_shards) {
    std::fprintf(stderr,
                 "error: --shard-index %lld out of range for "
                 "--num-shards %zu\n",
                 shard_index, num_shards);
    return 2;
  }
  store::ShardFilter filter;
  filter.num_shards = num_shards;
  filter.shard_index = sliced ? static_cast<size_t>(shard_index) : 0;

  serving::ServingConfig serving_config = ServingConfigFor(opts);
  std::printf("rebuilding testbed retrieval stack...\n");
  pipeline::Testbed testbed(ConfigFor(opts));
  std::shared_ptr<const store::MappedStoreFile> mapped = OpenStoreForServing(
      dir, testbed, serving_config, opts.GetString("map-warmup"), stdout);
  if (mapped == nullptr) return 1;

  // The single-node snapshot: the whole mapping, or a zero-copy shard
  // view over it (ShardedCluster builds the same views per shard).
  std::shared_ptr<const store::StoreSnapshot> snapshot =
      sliced ? store::StoreSnapshot::MappedShard(
                   mapped,
                   [filter](std::string_view key) {
                     return filter.Keeps(key);
                   })
             : store::StoreSnapshot::FromMapped(mapped);
  const size_t stored_entries = snapshot->entry_count();
  if (sliced) {
    std::printf("serving shard %lld/%zu: %zu stored entries (zero-copy "
                "view of the mapping)\n",
                shard_index, num_shards, stored_entries);
  }

  // One node, or a sharded cluster behind a router (--shards N; a
  // sliced process is always a single node — its fleet's other shards
  // are other processes). The tracer is declared before both so it
  // outlives their worker threads. A --listen server installs none:
  // nothing in net mode reads the ring, and every request would pay
  // for a Trace and the tracer's mutex.
  std::unique_ptr<obs::Tracer> tracer =
      net_mode ? nullptr : MakeTracer(opts);
  std::unique_ptr<cluster::ShardedCluster> cl;
  std::unique_ptr<serving::ServingNode> node;
  // Declared after the tiers they reload, so on every return each
  // refresher thread stops before the node or cluster it feeds goes.
  std::vector<std::unique_ptr<serving::StoreRefresher>> refreshers;
  if (!sliced) {
    cl = MakeCluster(opts, dir, mapped, testbed, serving_config,
                     &refreshers);
  }
  if (cl == nullptr) {
    node = std::make_unique<serving::ServingNode>(
        std::move(snapshot), &testbed.searcher(), &testbed.snippets(),
        &testbed.analyzer(), &testbed.corpus().store, serving_config);
    // A sliced node refreshes like a cluster shard: only the keys it
    // owns, and any persisted snapshot gets the per-shard suffix so
    // sibling processes never clobber each other.
    auto refresher =
        sliced ? MakeRefresher(
                     opts, dir, node.get(), testbed,
                     [filter](const std::string& key) {
                       return filter.Keeps(key);
                     },
                     static_cast<int>(shard_index))
               : MakeRefresher(opts, dir, node.get(), testbed);
    if (refresher != nullptr) refreshers.push_back(std::move(refresher));
  }
  if (cl != nullptr) {
    cl->set_tracer(tracer.get());
  } else {
    node->set_tracer(tracer.get());
  }

  // Either tier sits behind the same Frontend interface. A cluster's
  // blocking Submit is its fault-tolerant path: in the REPL a wedged or
  // killed shard degrades its keys instead of erroring.
  serving::Frontend* frontend =
      cl != nullptr ? static_cast<serving::Frontend*>(cl.get())
                    : static_cast<serving::Frontend*>(node.get());
  if (net_mode) {
    // Wire-protocol TCP server instead of the REPL: the server cannot
    // tell a single (possibly sliced) node from a whole in-process
    // cluster.
    obs::MetricsRegistry net_registry;
    net::NetServerConfig sc;
    sc.port = static_cast<uint16_t>(opts.GetInt("listen"));
    sc.max_connections = opts.GetSize("max-conns");
    sc.max_inflight_per_conn = opts.GetSize("max-inflight");
    sc.registry = &net_registry;
    net::NetServer server(frontend, sc);
    if (!server.Start()) {
      std::fprintf(stderr, "error: %s\n", server.last_error().c_str());
      return 1;
    }
    const std::string port_file = opts.GetString("port-file");
    if (!port_file.empty() &&
        !WriteFileAtomic(port_file, std::to_string(server.port()) + "\n")) {
      std::fprintf(stderr, "error: cannot write --port-file %s\n",
                   port_file.c_str());
      server.Stop();
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u (%zu stored queries; "
                "SIGINT/SIGTERM stops)\n",
                static_cast<unsigned>(server.port()), stored_entries);
    std::fflush(stdout);
    std::signal(SIGINT, OnShutdownSignal);
    std::signal(SIGTERM, OnShutdownSignal);
    while (g_shutdown_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.Stop();
    net::NetServerStats ns = server.stats();
    std::printf(
        "net: %llu conns accepted (%llu rejected), %llu requests, %llu "
        "responses, %llu shed, %llu protocol errors\n",
        static_cast<unsigned long long>(ns.connections_accepted),
        static_cast<unsigned long long>(ns.connections_rejected),
        static_cast<unsigned long long>(ns.requests),
        static_cast<unsigned long long>(ns.responses),
        static_cast<unsigned long long>(ns.shed),
        static_cast<unsigned long long>(ns.protocol_errors));
    if (cl != nullptr) {
      PrintClusterStats(cl->Stats());
    } else {
      PrintServingStats(node->Stats());
    }
    return 0;
  }
  auto print_stats = [&] {
    if (cl != nullptr) {
      PrintClusterStats(cl->Stats());
      PrintStageBreakdown(cl->metrics());
    } else {
      PrintServingStats(node->Stats());
      PrintStageBreakdown(node->metrics());
    }
    for (const auto& refresher : refreshers) {
      PrintRefresherStats(*refresher);
    }
  };

  // Resolved per-node config (ServingNode rewrites num_workers == 0 to
  // util::AvailableCpus(), the CPUs in the affinity mask).
  const serving::ServingConfig& resolved =
      cl != nullptr ? cl->shard(0)->config() : node->config();
  std::printf(
      "serving %zu stored queries with %zu workers (batch %zu, cache %s)\n"
      "one query per line; \":stats\" prints counters + stage breakdown; "
      "\":traces\" prints sampled traces; \":refresh\" forces a refresh "
      "tick; EOF exits\n",
      stored_entries, resolved.num_workers, resolved.max_batch,
      resolved.enable_cache ? "on" : "off");

  char line[4096];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string query(line);
    while (!query.empty() &&
           (query.back() == '\n' || query.back() == '\r')) {
      query.pop_back();
    }
    if (query.empty()) continue;
    if (query == ":stats") {
      print_stats();
      continue;
    }
    if (query == ":traces") {
      PrintTraces(*tracer);
      continue;
    }
    if (query == ":refresh") {
      if (refreshers.empty()) {
        std::printf("refresh disabled (run with --refresh-interval S)\n");
        continue;
      }
      for (const auto& refresher : refreshers) {
        util::Status s = refresher->TickOnce();
        if (!s.ok()) {
          std::printf("refresh tick failed: %s\n", s.ToString().c_str());
        }
        PrintRefresherStats(*refresher);
      }
      continue;
    }
    util::WallTimer timer;
    serving::Response result = frontend->Submit(serving::Request(query));
    double ms = timer.ElapsedMillis();
    std::printf("%s | %s%s%s%s | %.2f ms |", query.c_str(),
                result.diversified ? "diversified" : "passthrough",
                result.cache_hit ? " (cached)" : "",
                result.degraded ? " (degraded)" : "",
                result.hedged ? " (hedged)" : "", ms);
    for (DocId doc : result.ranking) {
      std::printf(" %u", static_cast<unsigned>(doc));
    }
    std::printf("\n");
  }
  print_stats();
  return 0;
}

/// `loadtest --connect`: drive remote shard servers over the wire
/// protocol. The mix is partitioned by the shared owner hash — the
/// partition `serve --shard-index` sliced the store with — and each
/// endpoint gets one pipelined connection. With --verify-local the
/// same mix is then served in process over the full store and every
/// answer must be bit-identical (FNV-1a ranking hashes).
int CmdLoadtestRemote(const tools::OptionSet& opts, const std::string& dir,
                      const pipeline::Testbed& testbed,
                      const std::vector<std::string>& mix) {
  std::vector<net::Endpoint> endpoints;
  if (!net::ParseEndpointList(opts.GetString("connect"), &endpoints) ||
      endpoints.empty()) {
    std::fprintf(stderr,
                 "error: --connect expects host:port[,host:port...]\n");
    return 2;
  }
  size_t window = opts.GetSize("pipeline");
  if (window == 0) window = 1;

  std::vector<std::vector<std::string>> shard_queries(endpoints.size());
  std::vector<std::vector<size_t>> shard_indices(endpoints.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    size_t owner = endpoints.size() == 1
                       ? 0
                       : store::ShardFilter::OwnerShard(
                             serving::NormalizeQuery(mix[i]),
                             endpoints.size());
    shard_queries[owner].push_back(mix[i]);
    shard_indices[owner].push_back(i);
  }

  std::printf("replaying %zu requests over %zu connection(s), window "
              "%zu...\n",
              mix.size(), endpoints.size(), window);
  std::vector<std::vector<serving::Response>> shard_responses(
      endpoints.size());
  std::vector<std::string> connect_errors(endpoints.size());
  util::WallTimer timer;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < endpoints.size(); ++s) {
    threads.emplace_back([&, s] {
      net::RemoteClient client;
      if (!client.Connect(endpoints[s].host, endpoints[s].port)) {
        connect_errors[s] = client.last_error();
        return;
      }
      shard_responses[s] = client.SubmitPipelined(shard_queries[s], window);
    });
  }
  for (auto& t : threads) t.join();
  double wall_ms = timer.ElapsedMillis();

  for (size_t s = 0; s < endpoints.size(); ++s) {
    if (!connect_errors[s].empty()) {
      std::fprintf(stderr, "error: %s:%u: %s\n", endpoints[s].host.c_str(),
                   static_cast<unsigned>(endpoints[s].port),
                   connect_errors[s].c_str());
      return 1;
    }
  }

  // Stitch the per-shard response streams back into mix order.
  std::vector<serving::Response> responses(mix.size());
  for (size_t s = 0; s < endpoints.size(); ++s) {
    for (size_t j = 0; j < shard_indices[s].size(); ++j) {
      responses[shard_indices[s][j]] = std::move(shard_responses[s][j]);
    }
  }
  size_t ok = 0;
  size_t failed = 0;
  for (const serving::Response& response : responses) {
    if (response.ok) {
      ++ok;
    } else {
      ++failed;
    }
  }
  std::printf(
      "replayed %zu/%zu requests in %.1f ms (%.0f QPS); %zu failed/shed\n",
      ok, mix.size(), wall_ms, wall_ms > 0 ? ok * 1000.0 / wall_ms : 0.0,
      failed);

  if (!opts.GetBool("verify-local")) return failed == 0 ? 0 : 1;

  std::printf("verify-local: serving the same mix in process...\n");
  serving::ServingConfig config = ServingConfigFor(opts);
  std::shared_ptr<const store::MappedStoreFile> mapped =
      OpenStoreForServing(dir, testbed, config, "none", stdout);
  if (mapped == nullptr) return 1;
  serving::ServingNode local(store::StoreSnapshot::FromMapped(mapped),
                             &testbed.searcher(), &testbed.snippets(),
                             &testbed.analyzer(), &testbed.corpus().store,
                             config);
  size_t mismatches = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (!responses[i].ok) {
      ++mismatches;
      continue;
    }
    serving::Response reference = local.Submit(serving::Request(mix[i]));
    if (cluster::RankingHash(reference.ranking) !=
        cluster::RankingHash(responses[i].ranking)) {
      ++mismatches;
      std::fprintf(stderr, "MISMATCH: \"%s\" remote != local\n",
                   mix[i].c_str());
    }
  }
  local.Shutdown();
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FATAL: %zu of %zu remote answers diverge from "
                 "in-process serving\n",
                 mismatches, mix.size());
    return 1;
  }
  std::printf("OK: all %zu remote answers bit-identical to in-process "
              "serving\n",
              mix.size());
  return 0;
}

int CmdLoadtest(const tools::OptionSet& opts) {
  const std::string& dir = opts.positional()[0];

  std::printf("rebuilding testbed retrieval stack...\n");
  pipeline::Testbed testbed(ConfigFor(opts));

  const size_t num_requests = opts.GetSize("requests");
  double skew = opts.GetDouble("skew");

  if (testbed.recommender().popularity().counts().empty()) {
    std::fprintf(stderr, "error: empty query log\n");
    return 1;
  }
  // Zipf-distributed replay mix over the log's popularity order — the
  // same traffic shape bench_serving_throughput measures.
  util::Rng rng(static_cast<uint64_t>(opts.GetInt("seed")));
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      testbed.recommender().popularity(), num_requests, skew, &rng);

  if (!opts.GetString("connect").empty()) {
    return CmdLoadtestRemote(opts, dir, testbed, mix);
  }

  serving::ServingConfig config = ServingConfigFor(opts);
  config.queue_capacity = num_requests;
  std::shared_ptr<const store::MappedStoreFile> mapped = OpenStoreForServing(
      dir, testbed, config, opts.GetString("map-warmup"), stdout);
  if (mapped == nullptr) return 1;

  std::unique_ptr<obs::Tracer> tracer = MakeTracer(opts);
  std::unique_ptr<cluster::ShardedCluster> cl;
  std::unique_ptr<serving::ServingNode> node;
  // Declared after the tiers they reload (see CmdServe).
  std::vector<std::unique_ptr<serving::StoreRefresher>> refreshers;
  cl = MakeCluster(opts, dir, mapped, testbed, config, &refreshers);
  if (cl == nullptr) {
    node = std::make_unique<serving::ServingNode>(
        store::StoreSnapshot::FromMapped(mapped), &testbed.searcher(),
        &testbed.snippets(), &testbed.analyzer(), &testbed.corpus().store,
        config);
    auto refresher = MakeRefresher(opts, dir, node.get(), testbed);
    if (refresher != nullptr) refreshers.push_back(std::move(refresher));
    node->set_tracer(tracer.get());
  } else {
    cl->set_tracer(tracer.get());
  }
  const obs::MetricsRegistry& registry =
      cl != nullptr ? cl->metrics() : node->metrics();

  // --metrics-out: a Prometheus-text snapshot of the registry, replaced
  // atomically every 250 ms while the replay runs (a scrape target on
  // disk) and once more after the drain so the file ends complete.
  const std::string& metrics_out = opts.GetString("metrics-out");
  auto write_metrics = [&] {
    return WriteFileAtomic(metrics_out, registry.RenderPrometheus());
  };
  std::atomic<bool> replay_done{false};
  std::thread metrics_writer;
  if (!metrics_out.empty()) {
    metrics_writer = std::thread([&] {
      while (!replay_done.load(std::memory_order_acquire)) {
        if (!write_metrics()) {
          std::fprintf(stderr, "warning: cannot write --metrics-out %s\n",
                       metrics_out.c_str());
        }
        for (int i = 0; i < 5; ++i) {
          if (replay_done.load(std::memory_order_acquire)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  std::printf("replaying %zu requests (skew %.2f) on %zu shard(s) x %zu "
              "workers...\n",
              num_requests, skew, cl != nullptr ? cl->num_shards() : 1,
              cl != nullptr ? cl->shard(0)->config().num_workers
                            : node->config().num_workers);

  // Both tiers replay through the one Frontend overload — the same
  // code path a RemoteClient takes in --connect mode.
  serving::Frontend* frontend =
      cl != nullptr ? static_cast<serving::Frontend*>(cl.get())
                    : static_cast<serving::Frontend*>(node.get());
  serving::ReplayOutcome out = serving::ReplayMix(frontend, mix);
  replay_done.store(true, std::memory_order_release);
  if (metrics_writer.joinable()) metrics_writer.join();
  std::printf("replayed %zu/%zu requests in %.1f ms (%.0f QPS)\n",
              out.accepted, num_requests, out.wall_ms, out.qps);
  for (const auto& refresher : refreshers) refresher->Stop();
  if (cl != nullptr) {
    PrintClusterStats(cl->Stats());
  } else {
    PrintServingStats(node->Stats());
  }
  PrintStageBreakdown(registry);
  PrintTraces(*tracer);
  for (const auto& refresher : refreshers) PrintRefresherStats(*refresher);
  if (!metrics_out.empty()) {
    // The final, post-drain snapshot is the one a reader relies on.
    if (!write_metrics()) {
      std::fprintf(stderr, "error: cannot write --metrics-out %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}

/// `optselect stats` — the observability probe: a deterministic,
/// strictly sequential replay on a single node, then the full metrics
/// dump. Sequential (one request in flight) and cache-off by default,
/// so every request runs every stage and the per-stage p50s sum to the
/// e2e p50 — the self-check that the stage timers actually tile a
/// request's lifetime.
int CmdStats(const tools::OptionSet& opts) {
  const std::string& dir = opts.positional()[0];
  const std::string& format = opts.GetString("format");
  bool table = format == "table";
  // prom/json dumps go to stdout; progress chatter must not pollute
  // them.
  std::FILE* chatter = table ? stdout : stderr;

  serving::ServingConfig config = ServingConfigFor(opts);
  config.queue_capacity = std::max<size_t>(config.queue_capacity, 64);
  std::fprintf(chatter, "rebuilding testbed retrieval stack...\n");
  pipeline::Testbed testbed(ConfigFor(opts));
  // The same mapping serve and loadtest answer from, so the stage table
  // times the store path they serve.
  std::shared_ptr<const store::MappedStoreFile> mapped =
      OpenStoreForServing(dir, testbed, config, "none", chatter);
  if (mapped == nullptr) return 1;

  const size_t num_requests = opts.GetSize("requests");
  double skew = opts.GetDouble("skew");
  if (testbed.recommender().popularity().counts().empty()) {
    std::fprintf(stderr, "error: empty query log\n");
    return 1;
  }
  util::Rng rng(static_cast<uint64_t>(opts.GetInt("seed")));
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      testbed.recommender().popularity(), num_requests, skew, &rng);

  std::unique_ptr<obs::Tracer> tracer = MakeTracer(opts);
  auto node = std::make_unique<serving::ServingNode>(
      store::StoreSnapshot::FromMapped(mapped), &testbed.searcher(),
      &testbed.snippets(), &testbed.analyzer(), &testbed.corpus().store,
      config);
  node->set_tracer(tracer.get());

  std::fprintf(chatter, "sequential replay: %zu requests (skew %.2f)...\n",
               num_requests, skew);
  serving::ReplayOutcome out =
      serving::ReplaySequential(node.get(), mix, nullptr, nullptr);
  // Drain the workers before reading the registry: the reply span is
  // recorded *after* the completion callback unblocks the client, so
  // without the drain the last request's reply sample may be mid-air.
  node->Shutdown();

  if (format == "prom") {
    std::printf("%s", node->metrics().RenderPrometheus().c_str());
    return 0;
  }
  if (format == "json") {
    std::printf("%s\n", node->metrics().RenderJson().c_str());
    return 0;
  }
  std::printf("replayed %zu requests in %.1f ms (%.0f QPS, sequential)\n",
              out.accepted, out.wall_ms, out.qps);
  PrintServingStats(node->Stats());
  PrintStageBreakdown(node->metrics());
  PrintTraces(*tracer);
  return 0;
}

// ------------------------------------------------ chaos, process level

/// argv[0], for self-exec of shard server processes (chaos --net).
const char* g_argv0 = "optselect";

/// Forks one `serve --listen` shard server process over <dir> (its
/// stdout+stderr go to <dir>/shard<i>.log). Returns the child pid, or
/// -1 on fork failure. The child inherits the parent's testbed and
/// serving flags as typed, so its answers are bit-identical by
/// construction.
pid_t SpawnShardServer(const tools::OptionSet& opts, const std::string& dir,
                       size_t index, size_t shards,
                       const std::string& listen_port,
                       const std::string& port_file) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  std::string log = dir + "/shard" + std::to_string(index) + ".log";
  int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    dup2(fd, 1);
    dup2(fd, 2);
    close(fd);
  }
  std::vector<std::string> args = {g_argv0,
                                   "serve",
                                   dir,
                                   "--listen",
                                   listen_port,
                                   "--port-file",
                                   port_file,
                                   "--shard-index",
                                   std::to_string(index),
                                   "--num-shards",
                                   std::to_string(shards),
                                   "--workers",
                                   "1"};
  for (const char* name :
       {"topics", "seed", "candidates", "c", "lambda", "k"}) {
    args.push_back(std::string("--") + name);
    args.push_back(opts.GetString(name));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  execvp(g_argv0, argv.data());
  _exit(127);
}

/// Polls a WritePortFile-published port (~30 s), watching the child so
/// a crashed server fails fast instead of timing out.
bool WaitForPortFile(const std::string& path, pid_t pid, uint16_t* port) {
  for (int i = 0; i < 600; ++i) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f != nullptr) {
      unsigned value = 0;
      int got = std::fscanf(f, "%u", &value);
      std::fclose(f);
      if (got == 1 && value > 0 && value <= 65535) {
        *port = static_cast<uint16_t>(value);
        return true;
      }
    }
    if (waitpid(pid, nullptr, WNOHANG) == pid) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// `chaos --net <dir>`: the failover contract proven across real
/// process boundaries. Spawns one `serve --listen` process per shard
/// (each holding its slice), replays a seeded mix through a QueryRouter
/// over RemoteClients, SIGKILLs a shard mid-replay — zero drops, the
/// victim's breaker opens, degraded answers equal the store-less DPH
/// passthrough, healthy keys bit-identical — then respawns it on the
/// same port and requires the breaker to close and full bit-identical
/// recovery.
int CmdChaosNet(const tools::OptionSet& opts, const std::string& dir) {
  size_t requests = opts.IsSet("requests") ? opts.GetSize("requests") : 400;
  size_t shards = opts.IsSet("shards") ? opts.GetSize("shards") : 2;
  // Each shard process opens (and validates) the store itself; fail
  // fast here only when there is nothing to open.
  if (access((dir + "/store.bin").c_str(), R_OK) != 0) {
    std::fprintf(stderr,
                 "error: cannot read %s/store.bin (run `optselect generate "
                 "%s` first)\n",
                 dir.c_str(), dir.c_str());
    return 1;
  }

  std::printf("rebuilding testbed retrieval stack...\n");
  pipeline::Testbed testbed(ConfigFor(opts));
  serving::ServingConfig node = ServingConfigFor(opts);
  const querylog::PopularityMap& popularity =
      testbed.recommender().popularity();
  if (popularity.counts().empty()) {
    std::fprintf(stderr, "error: empty query log\n");
    return 1;
  }
  util::Rng rng(static_cast<uint64_t>(opts.GetInt("seed")));
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      popularity, requests, opts.GetDouble("skew"), &rng);

  // Degraded answers must equal what a store-less node serves (the
  // PR 5 contract, shared with the in-process harness).
  std::unordered_map<std::string, uint64_t> passthrough =
      cluster::BuildPassthroughHashes(&testbed, node, mix);

  std::vector<pid_t> pids(shards, -1);
  std::vector<uint16_t> ports(shards, 0);
  auto kill_fleet = [&] {
    for (pid_t& pid : pids) {
      if (pid > 0) {
        kill(pid, SIGTERM);
        waitpid(pid, nullptr, 0);
        pid = -1;
      }
    }
  };
  for (size_t i = 0; i < shards; ++i) {
    std::string port_file = dir + "/shard" + std::to_string(i) + ".port";
    std::remove(port_file.c_str());
    pids[i] = SpawnShardServer(opts, dir, i, shards, "0", port_file);
    if (pids[i] <= 0) {
      std::fprintf(stderr, "error: fork failed for shard %zu\n", i);
      kill_fleet();
      return 1;
    }
  }
  for (size_t i = 0; i < shards; ++i) {
    std::string port_file = dir + "/shard" + std::to_string(i) + ".port";
    if (!WaitForPortFile(port_file, pids[i], &ports[i])) {
      std::fprintf(stderr,
                   "error: shard %zu never published its port (see "
                   "%s/shard%zu.log)\n",
                   i, dir.c_str(), i);
      kill_fleet();
      return 1;
    }
  }
  std::printf("spawned %zu shard servers:", shards);
  for (uint16_t port : ports) {
    std::printf(" 127.0.0.1:%u", static_cast<unsigned>(port));
  }
  std::printf("\n");

  // The remote fleet is a QueryRouter over one RemoteClient per shard:
  // the in-process cluster's router, breakers and degraded fallback.
  std::vector<std::unique_ptr<net::RemoteClient>> clients;
  std::vector<serving::Frontend*> endpoints;
  for (size_t i = 0; i < shards; ++i) {
    clients.push_back(std::make_unique<net::RemoteClient>());
    if (!clients[i]->Connect("127.0.0.1", ports[i])) {
      std::fprintf(stderr, "error: cannot connect to shard %zu: %s\n", i,
                   clients[i]->last_error().c_str());
      kill_fleet();
      return 1;
    }
    endpoints.push_back(clients[i].get());
  }
  cluster::FailoverConfig failover;
  failover.breaker_threshold = 2;
  failover.breaker_probe_after = 2;
  cluster::QueryRouter remote(std::move(endpoints), {}, failover);

  bool failed = false;
  auto check = [&](bool ok, const char* what, size_t count) {
    if (ok) {
      std::printf("OK: %s\n", what);
    } else {
      std::fprintf(stderr, "FATAL: %s (%zu)\n", what, count);
      failed = true;
    }
  };

  // Phase A: healthy replay — nothing may fail or degrade.
  std::vector<uint64_t> healthy(mix.size(), 0);
  size_t a_failed = 0;
  size_t a_degraded = 0;
  serving::ReplayOutcome out_a = serving::ReplaySequential(
      &remote, mix, nullptr, [&](size_t i, const serving::Response& r) {
        if (!r.ok) ++a_failed;
        if (r.degraded) ++a_degraded;
        healthy[i] = cluster::RankingHash(r.ranking);
      });
  std::printf("phase A (healthy): %zu requests, %.0f QPS\n", out_a.accepted,
              out_a.qps);
  check(a_failed == 0, "healthy replay: zero failures", a_failed);
  check(a_degraded == 0, "healthy replay: zero degraded", a_degraded);

  // Phase B: SIGKILL a shard halfway through. Its keys must degrade to
  // the passthrough; every other answer stays bit-identical.
  const size_t victim = 0;
  const size_t kill_at = mix.size() / 2;
  std::vector<cluster::BreakerTransition> transitions =
      remote.breaker_transitions();
  const uint64_t phase_b_seq =
      transitions.empty() ? 0 : transitions.back().seq + 1;
  size_t b_failed = 0;
  size_t b_degraded = 0;
  size_t degraded_divergences = 0;
  size_t healthy_divergences = 0;
  serving::ReplayOutcome out_b = serving::ReplaySequential(
      &remote, mix,
      [&](size_t i) {
        if (i == kill_at && pids[victim] > 0) {
          std::printf("  SIGKILL shard %zu (pid %d) at request %zu\n",
                      victim, static_cast<int>(pids[victim]), i);
          kill(pids[victim], SIGKILL);
          waitpid(pids[victim], nullptr, 0);
          pids[victim] = -1;
        }
      },
      [&](size_t i, const serving::Response& r) {
        if (!r.ok) {
          ++b_failed;
          return;
        }
        if (r.degraded) {
          ++b_degraded;
          auto it = passthrough.find(mix[i]);
          if (it == passthrough.end() ||
              cluster::RankingHash(r.ranking) != it->second) {
            ++degraded_divergences;
          }
        } else if (cluster::RankingHash(r.ranking) != healthy[i]) {
          ++healthy_divergences;
        }
      });
  std::printf("phase B (shard %zu killed): %zu requests, %zu degraded\n",
              victim, out_b.accepted, b_degraded);
  check(b_failed == 0, "zero dropped requests with a dead shard", b_failed);
  check(b_degraded > 0, "dead-owner keys were actually degraded", 0);
  check(degraded_divergences == 0,
        "degraded answers equal the DPH passthrough", degraded_divergences);
  check(healthy_divergences == 0,
        "live-shard answers bit-identical to the healthy run",
        healthy_divergences);
  transitions = remote.breaker_transitions();
  bool victim_opened = false;
  for (const cluster::BreakerTransition& t : transitions) {
    victim_opened |= t.seq >= phase_b_seq && t.shard == victim &&
                     t.from == cluster::BreakerState::kClosed &&
                     t.to == cluster::BreakerState::kOpen;
  }
  check(victim_opened,
        "the victim's breaker went closed -> open while it was dead", 0);

  // Phase C: respawn the shard on its old port (SO_REUSEADDR makes the
  // rebind immediate).
  std::string respawn_file =
      dir + "/shard" + std::to_string(victim) + ".respawn.port";
  std::remove(respawn_file.c_str());
  pids[victim] = SpawnShardServer(opts, dir, victim, shards,
                                  std::to_string(ports[victim]),
                                  respawn_file);
  uint16_t respawn_port = 0;
  if (pids[victim] <= 0 ||
      !WaitForPortFile(respawn_file, pids[victim], &respawn_port) ||
      respawn_port != ports[victim]) {
    std::fprintf(stderr, "error: shard %zu failed to respawn on port %u\n",
                 victim, static_cast<unsigned>(ports[victim]));
    kill_fleet();
    return 1;
  }
  std::printf("phase C: shard %zu respawned on port %u\n", victim,
              static_cast<unsigned>(respawn_port));

  // Warm the breaker shut: after breaker_probe_after skipped routing
  // decisions the half-open probe redials the owner.
  std::string victim_key;
  for (const std::string& query : mix) {
    if (remote.OwnerOf(query) == victim) {
      victim_key = query;
      break;
    }
  }
  bool recovered = victim_key.empty();
  for (size_t i = 0; i < 32 && !recovered; ++i) {
    serving::Response r = remote.Submit(serving::Request(victim_key));
    recovered = r.ok && !r.degraded;
  }
  check(recovered, "owner recovered after respawn (probe reconnected)", 0);
  check(clients[victim]->reconnects() > 0,
        "the victim's client redialed the respawned shard", 0);
  transitions = remote.breaker_transitions();
  const cluster::BreakerTransition* victim_last = nullptr;
  for (const cluster::BreakerTransition& t : transitions) {
    if (t.shard == victim) victim_last = &t;
  }
  check(victim_last != nullptr &&
            victim_last->to == cluster::BreakerState::kClosed,
        "the victim's breaker ended closed after the respawn", 0);

  // Phase D: post-recovery replay — bit-identical to the healthy run.
  size_t d_failed = 0;
  size_t d_degraded = 0;
  size_t d_divergences = 0;
  serving::ReplaySequential(
      &remote, mix, nullptr, [&](size_t i, const serving::Response& r) {
        if (!r.ok) {
          ++d_failed;
          return;
        }
        if (r.degraded) ++d_degraded;
        if (cluster::RankingHash(r.ranking) != healthy[i]) ++d_divergences;
      });
  check(d_failed == 0, "recovered replay: zero failures", d_failed);
  check(d_degraded == 0, "recovered replay: zero degraded", d_degraded);
  check(d_divergences == 0,
        "recovered replay bit-identical to the healthy run", d_divergences);

  PrintFailoverStats(remote.stats());
  std::printf("reconnects: %llu (shard %zu client)\n",
              static_cast<unsigned long long>(clients[victim]->reconnects()),
              victim);
  kill_fleet();
  return failed ? 1 : 0;
}

int CmdChaos(const tools::OptionSet& opts) {
  const std::string net_dir = opts.GetString("net");
  if (!net_dir.empty()) return CmdChaosNet(opts, net_dir);

  size_t requests = opts.GetSize("requests");
  size_t shards = opts.GetSize("shards");

  std::printf("building testbed + store...\n");
  pipeline::Testbed testbed(ConfigFor(opts));
  serving::ServingConfig node = ServingConfigFor(opts);

  // Build the store in-memory with plans compiled at the node's exact
  // serving params, like `generate` + `serve` with matching flags.
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  // Each build is served from its in-memory v4 image, the shape every
  // serving entry takes.
  auto build_image = [&](const store::StoreBuilderOptions& options) {
    store::DiversificationStore built;
    store::BuildStore(testbed.detector(), testbed.searcher(),
                      testbed.snippets(), testbed.analyzer(),
                      testbed.corpus().store, roots, options, &built);
    auto image = store::MappedStoreFile::FromStore(built);
    if (!image.ok()) {
      std::fprintf(stderr, "error: %s\n", image.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(image).value();
  };
  store::StoreBuilderOptions store_opts;
  store_opts.plan.num_candidates = node.params.num_candidates;
  store_opts.plan.threshold_c = node.params.threshold_c;
  std::shared_ptr<const store::MappedStoreFile> mapped =
      build_image(store_opts);
  if (mapped->entry_count() < 2) {
    std::fprintf(stderr, "error: testbed mined %zu stored entries; need "
                         ">= 2 (raise --topics)\n",
                 mapped->entry_count());
    return 1;
  }

  cluster::ChaosConfig chaos;
  chaos.requests = requests;
  chaos.zipf_skew = opts.GetDouble("skew");
  chaos.seed = static_cast<uint64_t>(opts.GetInt("seed"));
  chaos.num_shards = shards;
  chaos.replicate_hot = opts.GetSize("replicate-hot");
  chaos.node = node;
  chaos.failover.hedge_delay = std::chrono::microseconds(
      static_cast<long long>(opts.GetDouble("hedge-ms") * 1000.0));
  chaos.slow_read_delay = std::chrono::microseconds(
      static_cast<long long>(opts.GetDouble("slow-ms") * 1000.0));
  chaos.schedule = cluster::DefaultChaosSchedule(requests, shards);
  chaos.trace_sample_every =
      static_cast<uint64_t>(opts.GetInt("trace-every"));

  const querylog::PopularityMap& popularity =
      testbed.recommender().popularity();
  std::vector<std::string> mix = cluster::BuildChaosMix(popularity, chaos);

  // The hedge counter is enforced only when the scenario *guarantees*
  // at least one hedge (see CountHedgeOpportunities) — a small or
  // unlucky mix, or delays that make hedging moot, report instead of
  // failing.
  size_t hedge_opportunities =
      cluster::CountHedgeOpportunities(*mapped, popularity, mix, chaos);

  // Per-query passthrough references: what a store-less node answers —
  // the exact ranking a degraded (dead-owner) answer must carry.
  std::unordered_map<std::string, uint64_t> passthrough =
      cluster::BuildPassthroughHashes(&testbed, node, mix);

  cluster::ChaosConfig calm = chaos;
  calm.schedule.clear();
  std::printf("no-fault reference run (%zu requests, %zu shards)...\n",
              requests, shards);
  cluster::ChaosReport no_fault = cluster::RunChaosScenario(
      mapped, &testbed, &popularity, mix, calm);
  std::printf("chaos run A (%zu scheduled events)...\n",
              chaos.schedule.size());
  cluster::ChaosReport run_a = cluster::RunChaosScenario(
      mapped, &testbed, &popularity, mix, chaos);
  std::printf("chaos run B (same seed)...\n");
  cluster::ChaosReport run_b = cluster::RunChaosScenario(
      mapped, &testbed, &popularity, mix, chaos);

  cluster::ChaosVerdict verdict = cluster::VerifyChaosRuns(
      run_a, run_b, no_fault, mix, passthrough);

  util::TablePrinter tp;
  tp.SetHeader({"run", "wall ms", "QPS", "degraded", "dropped", "hedges",
                "probes", "opens", "transitions"});
  auto report_row = [&](const std::string& name,
                        const cluster::ChaosReport& r) {
    tp.AddRow({name, util::TablePrinter::Num(r.wall_ms, 1),
               util::TablePrinter::Num(r.qps, 0),
               std::to_string(r.degraded), std::to_string(r.dropped),
               std::to_string(r.router.hedges_won) + "/" +
                   std::to_string(r.router.hedges_launched),
               std::to_string(r.router.probes),
               std::to_string(r.router.breaker_opens),
               std::to_string(r.transitions.size())});
  };
  report_row("no-fault", no_fault);
  report_row("chaos A", run_a);
  report_row("chaos B", run_b);
  std::printf("%s", tp.ToString().c_str());

  std::printf("breaker transitions (run A):\n");
  for (const cluster::BreakerTransition& t : run_a.transitions) {
    std::printf("  #%llu shard %zu: %s -> %s\n",
                static_cast<unsigned long long>(t.seq), t.shard,
                cluster::BreakerStateName(t.from),
                cluster::BreakerStateName(t.to));
  }

  bool failed = false;
  auto check = [&](bool ok, const char* what, size_t count) {
    if (ok) {
      std::printf("OK: %s\n", what);
    } else {
      std::fprintf(stderr, "FATAL: %s (%zu)\n", what, count);
      failed = true;
    }
  };
  check(verdict.dropped == 0, "zero dropped requests", verdict.dropped);
  check(verdict.outcome_mismatches == 0,
        "request outcomes deterministic across two same-seed runs",
        verdict.outcome_mismatches);
  check(verdict.transition_mismatches == 0,
        "breaker transition log deterministic",
        verdict.transition_mismatches);
  check(verdict.healthy_divergences == 0,
        "healthy-key rankings bit-identical to the no-fault run",
        verdict.healthy_divergences);
  check(verdict.degraded_divergences == 0,
        "degraded answers equal the DPH passthrough",
        verdict.degraded_divergences);
  check(verdict.breaker_opened, "a breaker opened while a shard was dead",
        0);
  check(run_a.degraded > 0, "dead-owner keys were actually degraded",
        0);
  if (hedge_opportunities > 0) {
    check(run_a.router.hedges_launched > 0,
          "hedged retries fired during the slow-read window", 0);
  } else {
    std::printf(
        "SKIP: hedge check — the scenario guarantees no hedge (no "
        "replicated key round-robins onto a slowed shard during the "
        "slow window, or --slow-ms is not >= 2x --hedge-ms)\n");
  }

  // Trace invariants: the sampled traces must retell exactly the story
  // the report recorded.
  cluster::TraceVerdict tv =
      cluster::VerifyTraceInvariants(run_a, run_b, chaos);
  check(tv.sampled_a == tv.sampled_expected &&
            tv.sampled_b == tv.sampled_expected,
        "every sampled request traced exactly once",
        tv.sampled_a + tv.sampled_b);
  check(tv.outcome_mismatches == 0,
        "traced outcomes match the report's outcome vector",
        tv.outcome_mismatches);
  check(tv.breaker_mismatches == 0,
        "tracer breaker log mirrors the router transition log",
        tv.breaker_mismatches);
  check(tv.cross_run_mismatches == 0,
        "sampled trace sequences identical across the two runs",
        tv.cross_run_mismatches);

  // Streaming-under-chaos: the scenarios above compile plans at the
  // node's exact params, so stored queries never reach the streaming
  // cold path. Re-run the same faulted mix over a plans-off store —
  // every stored query now scans-and-maintains — and require the
  // replays to stay deterministic with the streaming selector in the
  // loop.
  std::printf("streaming cold-path scenario (plans-off store)...\n");
  store::StoreBuilderOptions cold_opts;
  cold_opts.compile_plans = false;
  std::shared_ptr<const store::MappedStoreFile> cold_store =
      build_image(cold_opts);
  cluster::ChaosReport cold_a = cluster::RunChaosScenario(
      cold_store, &testbed, &popularity, mix, chaos);
  cluster::ChaosReport cold_b = cluster::RunChaosScenario(
      cold_store, &testbed, &popularity, mix, chaos);
  size_t cold_mismatches = 0;
  for (size_t i = 0; i < cold_a.outcomes.size(); ++i) {
    if (!(cold_a.outcomes[i] == cold_b.outcomes[i])) ++cold_mismatches;
  }
  check(cold_a.streaming_served > 0,
        "streaming cold path actually served under chaos",
        static_cast<size_t>(cold_a.streaming_served));
  check(cold_a.streaming_served == cold_b.streaming_served,
        "streaming-served counts identical across same-seed runs",
        static_cast<size_t>(cold_a.streaming_served +
                            cold_b.streaming_served));
  check(cold_mismatches == 0,
        "streaming-mode replays deterministic (A == B outcome vectors)",
        cold_mismatches);
  return failed ? 1 : 0;
}

/// One subcommand: its flag declarations and its entry point.
struct Subcommand {
  tools::OptionSet (*options)();
  int (*run)(const tools::OptionSet&);
};

const Subcommand kSubcommands[] = {
    {GenerateOptions, CmdGenerate}, {MineOptions, CmdMine},
    {RunOptions, CmdRun},           {EvaluateOptions, CmdEvaluate},
    {UpgradeOptions, CmdUpgrade},   {ServeOptions, CmdServe},
    {LoadtestOptions, CmdLoadtest}, {StatsOptions, CmdStats},
    {ChaosOptions, CmdChaos},
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "optselect — OptSelect diversification testbed & serving "
               "CLI\n\nusage: optselect <subcommand> [args] [flags]\n\n"
               "subcommands:\n");
  for (const Subcommand& sub : kSubcommands) {
    tools::OptionSet opts = sub.options();
    std::fprintf(out, "  %s\n      %s\n", opts.Usage().c_str(),
                 opts.summary().c_str());
  }
  std::fprintf(out,
               "\n`optselect <subcommand> --help` lists its flags; bad "
               "flags exit with status 2.\n");
}

}  // namespace

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  const std::string cmd = argc < 2 ? "" : argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  for (const Subcommand& sub : kSubcommands) {
    tools::OptionSet opts = sub.options();
    if (opts.subcommand() != cmd) continue;
    if (!opts.Parse(argc, argv, 2)) {
      std::fprintf(stderr, "error: %s\n\n", opts.error().c_str());
      opts.PrintHelp(stderr);
      return 2;
    }
    if (opts.help_requested()) {
      opts.PrintHelp(stdout);
      return 0;
    }
    return sub.run(opts);
  }
  if (!cmd.empty()) {
    std::fprintf(stderr, "error: unknown subcommand `%s`\n\n", cmd.c_str());
  }
  PrintUsage(stderr);
  return 2;
}
