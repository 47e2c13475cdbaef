// Network serving edge — the wire protocol's cost over in-process
// serving, measured through the same serving::Frontend contract on
// both sides of the socket.
//
// Replays a Zipf-distributed query mix four ways: in-process
// (ServingNode via ReplayMix, the reference), one blocking
// request/response connection, one pipelined connection (window 32),
// and a two-shard server fleet fed by owner-partitioned pipelined
// clients — the same partitioning `optselect serve --shard-index` and
// the in-process ShardedCluster use, so every query is answered by its
// owner shard.
//
// Correctness gates before any timing is trusted: every remote answer
// must hash bit-identical to the in-process node's answer for the same
// mix slot (`mismatches`), every request must be answered ok
// (`failures`), and the servers must shed nothing (`shed`). All three
// are emitted as params pinned to 0 — .github/check_bench.py fails the
// build on a nonzero value, and the bench itself exits non-zero first.
//
// Output: a human table plus BENCH_net_serving.json (bench_util), with
// the single-server run's net_* metrics registry embedded as context.
//
//   bench_net_serving [requests] [zipf_skew]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "pipeline/testbed.h"
#include "querylog/popularity.h"
#include "serving/cache_key.h"
#include "serving/frontend.h"
#include "serving/replay.h"
#include "serving/serving_node.h"
#include "store/store_builder.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

uint64_t RankHash(const std::vector<DocId>& ranking) {
  return util::Fnv1a64(ranking.data(), ranking.size() * sizeof(DocId));
}

/// One timed network run's outcome; the correctness counters gate the
/// timing (the bench exits non-zero when any is nonzero).
struct NetRun {
  double wall_ms = 0;
  double qps = 0;
  uint64_t mismatches = 0;
  uint64_t failures = 0;
  uint64_t shed = 0;
};

serving::ServingConfig NodeConfig(size_t num_requests) {
  serving::ServingConfig config;
  config.num_workers = 2;
  config.queue_capacity = num_requests;
  config.max_batch = 8;
  config.enable_cache = true;
  config.params.num_candidates = 200;
  config.params.diversify.k = 10;
  return config;
}

void TallyAgainstReference(const std::vector<serving::Response>& responses,
                           const std::vector<uint64_t>& want,
                           const std::vector<size_t>& slots, NetRun* run) {
  for (size_t i = 0; i < responses.size(); ++i) {
    const serving::Response& r = responses[i];
    if (!r.ok) {
      ++run->failures;
      continue;
    }
    if (RankHash(r.ranking) != want[slots[i]]) ++run->mismatches;
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  double skew = argc > 2 ? std::atof(argv[2]) : 1.0;

  std::printf("building testbed + store...\n");
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  store::DiversificationStore store;
  std::vector<std::string> roots;
  for (const auto& topic : testbed.universe().topics) {
    roots.push_back(topic.root_query);
  }
  store::BuildStore(testbed.detector(), testbed.searcher(),
                    testbed.snippets(), testbed.analyzer(),
                    testbed.corpus().store, roots, {}, &store);

  util::Rng rng(99);
  std::vector<std::string> mix = querylog::ZipfQueryMix(
      testbed.recommender().popularity(), num_requests, skew, &rng);
  std::vector<size_t> identity_slots(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) identity_slots[i] = i;

  serving::ServingConfig config = NodeConfig(num_requests);

  // ---- in-process reference: per-slot ranking hashes ----------------
  std::vector<uint64_t> want(mix.size(), 0);
  double inproc_wall_ms = 0, inproc_qps = 0;
  {
    serving::ServingNode local(&store, &testbed, config);
    size_t reference_failures = 0;
    serving::ReplaySequential(
        &local, mix, nullptr,
        [&](size_t i, const serving::Response& r) {
          if (!r.ok) {
            ++reference_failures;
            return;
          }
          want[i] = RankHash(r.ranking);
        });
    if (reference_failures != 0) {
      std::fprintf(stderr, "FATAL: %zu in-process reference failures\n",
                   reference_failures);
      return 1;
    }
    // The timed in-process row rides the same Frontend contract the
    // remote clients implement — local and remote replays are the same
    // code path by construction.
    serving::ReplayOutcome out =
        serving::ReplayMix(&local, mix);
    if (out.accepted != mix.size()) {
      std::fprintf(stderr, "FATAL: in-process replay shed %zu requests\n",
                   mix.size() - out.accepted);
      return 1;
    }
    inproc_wall_ms = out.wall_ms;
    inproc_qps = out.qps;
    local.Shutdown();
  }

  // ---- single server: blocking, then pipelined ----------------------
  obs::MetricsRegistry net_registry;
  NetRun blocking, pipelined;
  {
    serving::ServingNode node(&store, &testbed, config);
    net::NetServerConfig sc;
    sc.port = 0;  // ephemeral
    sc.registry = &net_registry;
    net::NetServer server(&node, sc);
    if (!server.Start()) {
      std::fprintf(stderr, "FATAL: server: %s\n", server.last_error().c_str());
      return 1;
    }

    net::RemoteClient client;
    if (!client.Connect("127.0.0.1", server.port())) {
      std::fprintf(stderr, "FATAL: connect: %s\n", client.last_error().c_str());
      return 1;
    }

    {
      std::vector<serving::Response> responses;
      responses.reserve(mix.size());
      util::WallTimer timer;
      for (const std::string& query : mix) {
        responses.push_back(client.Submit(serving::Request(query)));
      }
      blocking.wall_ms = timer.ElapsedMillis();
      TallyAgainstReference(responses, want, identity_slots, &blocking);
    }
    {
      util::WallTimer timer;
      std::vector<serving::Response> responses =
          client.SubmitPipelined(mix, 32);
      pipelined.wall_ms = timer.ElapsedMillis();
      TallyAgainstReference(responses, want, identity_slots, &pipelined);
    }
    client.Close();
    server.Stop();
    blocking.shed = server.stats().shed;  // cumulative: both runs
    pipelined.shed = server.stats().shed;
    node.Shutdown();
  }

  // ---- two-shard fleet: owner-partitioned pipelined clients ---------
  NetRun fleet;
  {
    const size_t kShards = 2;
    std::vector<store::DiversificationStore> slices;
    slices.reserve(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      store::ShardFilter filter;
      filter.num_shards = kShards;
      filter.shard_index = s;
      slices.push_back(store::SplitStore(store, filter));
    }
    std::vector<std::unique_ptr<serving::ServingNode>> nodes;
    std::vector<std::unique_ptr<net::NetServer>> servers;
    for (size_t s = 0; s < kShards; ++s) {
      nodes.push_back(std::make_unique<serving::ServingNode>(
          &slices[s], &testbed, config));
      net::NetServerConfig sc;
      sc.port = 0;
      servers.push_back(std::make_unique<net::NetServer>(nodes[s].get(), sc));
      if (!servers[s]->Start()) {
        std::fprintf(stderr, "FATAL: shard %zu: %s\n", s,
                     servers[s]->last_error().c_str());
        return 1;
      }
    }

    // The same owner hash `serve --shard-index` slices the store by.
    std::vector<std::vector<std::string>> shard_queries(kShards);
    std::vector<std::vector<size_t>> shard_slots(kShards);
    for (size_t i = 0; i < mix.size(); ++i) {
      size_t owner = store::ShardFilter::OwnerShard(
          serving::NormalizeQuery(mix[i]), kShards);
      shard_queries[owner].push_back(mix[i]);
      shard_slots[owner].push_back(i);
    }

    std::vector<std::vector<serving::Response>> shard_responses(kShards);
    std::vector<int> connect_failed(kShards, 0);
    util::WallTimer timer;
    std::vector<std::thread> drivers;
    for (size_t s = 0; s < kShards; ++s) {
      drivers.emplace_back([&, s] {
        net::RemoteClient client;
        if (!client.Connect("127.0.0.1", servers[s]->port())) {
          connect_failed[s] = 1;
          return;
        }
        shard_responses[s] = client.SubmitPipelined(shard_queries[s], 32);
      });
    }
    for (std::thread& t : drivers) t.join();
    fleet.wall_ms = timer.ElapsedMillis();

    for (size_t s = 0; s < kShards; ++s) {
      if (connect_failed[s]) {
        std::fprintf(stderr, "FATAL: shard %zu connect failed\n", s);
        return 1;
      }
      TallyAgainstReference(shard_responses[s], want, shard_slots[s], &fleet);
      servers[s]->Stop();
      fleet.shed += servers[s]->stats().shed;
      nodes[s]->Shutdown();
    }
  }

  // ---- report -------------------------------------------------------
  for (NetRun* run : {&blocking, &pipelined, &fleet}) {
    run->qps = run->wall_ms > 0
                   ? 1000.0 * static_cast<double>(mix.size()) / run->wall_ms
                   : 0.0;
  }
  bool breach = false;
  for (const auto& [name, run] :
       std::vector<std::pair<const char*, const NetRun*>>{
           {"net_blocking", &blocking},
           {"net_pipelined", &pipelined},
           {"net_cluster_2shard", &fleet}}) {
    if (run->mismatches != 0 || run->failures != 0 || run->shed != 0) {
      std::fprintf(stderr,
                   "FATAL: %s: %llu mismatches, %llu failures, %llu shed\n",
                   name,
                   static_cast<unsigned long long>(run->mismatches),
                   static_cast<unsigned long long>(run->failures),
                   static_cast<unsigned long long>(run->shed));
      breach = true;
    }
  }
  if (breach) return 1;
  std::printf("remote bit-identity: OK over %zu requests x 3 network runs\n",
              mix.size());

  bench::BenchJsonWriter json("net_serving");
  util::TablePrinter tp;
  tp.SetHeader({"config", "wall ms", "QPS", "vs in-process"});
  auto add = [&](const std::string& name, double wall_ms, double qps,
                 const NetRun* run, double window, double shards) {
    tp.AddRow({name, util::TablePrinter::Num(wall_ms, 1),
               util::TablePrinter::Num(qps, 0),
               util::TablePrinter::Num(inproc_qps > 0 ? qps / inproc_qps : 0,
                                       2)});
    std::vector<std::pair<std::string, double>> params = {
        {"requests", static_cast<double>(num_requests)},
        {"zipf_skew", skew},
        {"workers", 2.0},
        {"pipeline_window", window},
        {"shards", shards}};
    if (run != nullptr) {
      params.emplace_back("mismatches", static_cast<double>(run->mismatches));
      params.emplace_back("failures", static_cast<double>(run->failures));
      params.emplace_back("shed", static_cast<double>(run->shed));
    }
    json.Add(name, params, wall_ms, qps);
  };
  add("local_inproc", inproc_wall_ms, inproc_qps, nullptr, 0, 1);
  add("net_blocking", blocking.wall_ms, blocking.qps, &blocking, 1, 1);
  add("net_pipelined", pipelined.wall_ms, pipelined.qps, &pipelined, 32, 1);
  add("net_cluster_2shard", fleet.wall_ms, fleet.qps, &fleet, 32, 2);
  json.SetMetricsJson(net_registry.RenderJson());

  std::printf("%s", tp.ToString().c_str());
  if (pipelined.qps > 0 && blocking.qps > 0) {
    std::printf("pipelining (window 32) over blocking round trips: %.1fx\n",
                pipelined.qps / blocking.qps);
  }

  util::Status s = json.WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_net_serving.json (%zu records)\n", json.size());
  return 0;
}
