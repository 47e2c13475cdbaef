#include "workloads.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "cluster/chaos.h"
#include "cluster/sharded_cluster.h"
#include "core/parallel_optselect.h"
#include "core/select_view.h"
#include "core/streaming_select.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/testbed.h"
#include "querylog/log_ingestor.h"
#include "report.h"
#include "serving/cache_key.h"
#include "serving/result_cache.h"
#include "serving/serving_node.h"
#include "serving/store_refresher.h"
#include "spans.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using namespace optselect;  // NOLINT(build/namespaces)
using RankingMap = std::unordered_map<std::string, std::vector<DocId>>;

// ------------------------------------------------------------ constants
//
// The testbed is fixed: the 100-topic TREC-shaped preset at the CLI's
// default seed (99 stored ambiguous queries, ~1k distinct log queries,
// a 2.8 MB v4 store with plans). --seed moves only the traffic.

constexpr size_t kTopics = 100;
constexpr uint64_t kTestbedSeed = 17;
// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
// Open-loop connections on wire_mix (at most nproc = 4 may be opened).
constexpr size_t kWireConnections = 2;
constexpr size_t kWireShards = 2;

struct WorkloadSpec {
  const char* name;
  TrafficSpec traffic;
  size_t workers;         ///< per node (per shard on wire_mix)
  bool cache;
  bool plans;             ///< store saved with compiled plans
  bool wire;              ///< NetServer + ShardedCluster
  /// A StoreRefresher writer beside the reads. Its traffic comes from
  /// the testbed and the program's defaults (RefreshTraffic).
  bool refresh;
  size_t replay_requests; ///< traced run: sequential replay length
};

// Rates keep busy threads within nproc = 4: one pacer, the workers, and
// on refresh_mix the writer. Capacities: plan path ~12 us/request,
// cold path ~8 ms/request (60 req/s keeps 2 workers a quarter busy, so
// queueing amplifies a slow host only a little).
const WorkloadSpec kSpecs[] = {
    {"plan_zipf", {MixKind::kStoredZipf, 4000.0, 0.0, 0}, 2, false, true,
     false, false, 3000},
    {"cold_zipf", {MixKind::kStoredZipf, 60.0, 0.0, 0}, 2, false, false,
     false, false, 150},
    {"wire_mix", {MixKind::kLogZipf, 8000.0, 0.0, 0}, 1, true, true, true,
     false, 3000},
    {"refresh_mix", {MixKind::kLogZipf, 2000.0, 0.0, 0}, 2, true, true,
     false, true, 2000},
};

pipeline::TestbedConfig BenchTestbedConfig() {
  pipeline::TestbedConfig c = pipeline::TestbedConfig::TrecShaped();
  c.universe.num_topics = kTopics;
  c.universe.seed = kTestbedSeed;
  c.corpus.seed = kTestbedSeed + 1;
  c.log.seed = kTestbedSeed + 2;
  return c;
}

pipeline::PipelineParams Params() {
  pipeline::PipelineParams p;
  p.num_candidates = 200;
  p.threshold_c = 0.3;
  p.diversify.k = 10;
  p.diversify.lambda = 0.15;
  return p;
}

serving::ServingConfig NodeConfig(const WorkloadSpec& spec,
                                  const querylog::PopularityMap& popularity);

store::StoreBuilderOptions StoreOptions(bool plans) {
  store::StoreBuilderOptions o;
  o.compile_plans = plans;
  o.plan.num_candidates = Params().num_candidates;
  o.plan.threshold_c = Params().threshold_c;
  return o;
}

// ----------------------------------------------------------- components

/// The serving-time pieces of a testbed, by pointer.
struct Components {
  const synth::TopicUniverse* universe = nullptr;
  const corpus::DocumentStore* documents = nullptr;
  const querylog::QueryLog* log = nullptr;
  const querylog::PopularityMap* popularity = nullptr;
  const recommend::AmbiguityDetector* detector = nullptr;
  const text::Analyzer* analyzer = nullptr;
  const index::Searcher* searcher = nullptr;
  const index::SnippetExtractor* snippets = nullptr;
};

Components FromTestbed(const pipeline::Testbed& tb) {
  Components c;
  c.universe = &tb.universe();
  c.documents = &tb.corpus().store;
  c.log = &tb.log_result().log;
  c.popularity = &tb.recommender().popularity();
  c.detector = &tb.detector();
  c.analyzer = &tb.analyzer();
  c.searcher = &tb.searcher();
  c.snippets = &tb.snippets();
  return c;
}

// ---------------------------------------------------- refresh_mix traffic
//
// refresh_mix takes its traffic constants from the testbed's log and
// the program's own defaults rather than choosing them:
//   - never-repeated queries get the share of the log's distinct
//     queries that the log saw only once (45 of 1045, 4.3%);
//   - the result cache holds the log's distinct queries, so every query
//     the log knows fits and the never-repeated tail overflows it;
//   - the writer ticks once per StoreRefresherConfig's default interval
//     (5 s) of the schedule, as the refresher's own loop would.

struct RefreshTraffic {
  double tail_share = 0.0;
  size_t cache_capacity = 0;
  int64_t tick_interval_ns = 0;
};

RefreshTraffic RefreshTrafficFor(const querylog::PopularityMap& popularity) {
  RefreshTraffic t;
  t.tail_share = SingletonShare(popularity);
  t.cache_capacity = popularity.distinct();
  t.tick_interval_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           serving::StoreRefresherConfig().interval)
                           .count();
  return t;
}

/// Refresh ticks inside a `seconds`-long phase, one per interval.
size_t TickCount(const RefreshTraffic& t, double seconds) {
  const double interval_s = t.tick_interval_ns / 1e9;
  return static_cast<size_t>(std::ceil(seconds / interval_s)) - 1;
}

serving::ServingConfig NodeConfig(const WorkloadSpec& spec,
                                  const querylog::PopularityMap& popularity) {
  serving::ServingConfig c;
  c.num_workers = spec.workers;
  // Deep enough that a host stall of a second never sheds.
  c.queue_capacity = 1 << 16;
  c.max_batch = 8;
  c.enable_cache = spec.cache;
  if (spec.refresh) {
    c.cache.capacity = RefreshTrafficFor(popularity).cache_capacity;
  }
  c.params = Params();
  return c;
}

/// The Testbed constructor's component calls, one span each, in the
/// constructor's order (pipeline/testbed.cc).
class TracedTestbed {
 public:
  TracedTestbed(const pipeline::TestbedConfig& config, SpanRecorder* rec) {
    {
      Scope s(rec, "synth.universe", 0);
      universe_ = synth::GenerateTopicUniverse(config.universe,
                                               config.num_noise_queries);
    }
    {
      Scope s(rec, "corpus.generate", 0);
      corpus_ = corpus::GenerateSyntheticCorpus(config.corpus,
                                                universe_.topics);
    }
    {
      Scope s(rec, "querylog.generate", 0);
      log_ = querylog::SyntheticLogGenerator(config.log)
                 .Generate(universe_.topics, universe_.noise_queries);
    }
    {
      Scope s(rec, "querylog.sessions", 0);
      qfg_ = std::make_unique<querylog::QueryFlowGraph>(
          querylog::QueryFlowGraph::Build(log_.log,
                                          querylog::QueryFlowGraph::Options{}));
      sessions_ = querylog::SessionSegmenter(config.segmenter)
                      .Segment(log_.log, qfg_.get());
    }
    {
      Scope s(rec, "recommend.train", 0);
      recommender_.Train(log_.log, sessions_);
      detector_ = std::make_unique<recommend::AmbiguityDetector>(
          &recommender_, config.detector);
    }
    {
      Scope s(rec, "index.build", 0);
      index_ = std::make_unique<index::InvertedIndex>(
          index::InvertedIndex::Build(corpus_.store, &analyzer_));
      searcher_ = std::make_unique<index::Searcher>(index_.get(), &analyzer_);
      snippets_ =
          std::make_unique<index::SnippetExtractor>(&analyzer_, index_.get());
    }
  }

  Components parts() const {
    Components c;
    c.universe = &universe_;
    c.documents = &corpus_.store;
    c.log = &log_.log;
    c.popularity = &recommender_.popularity();
    c.detector = detector_.get();
    c.analyzer = &analyzer_;
    c.searcher = searcher_.get();
    c.snippets = snippets_.get();
    return c;
  }

 private:
  synth::TopicUniverse universe_;
  corpus::SyntheticCorpus corpus_;
  querylog::SyntheticLogResult log_;
  std::unique_ptr<querylog::QueryFlowGraph> qfg_;
  std::vector<querylog::Session> sessions_;
  recommend::ShortcutsRecommender recommender_;
  std::unique_ptr<recommend::AmbiguityDetector> detector_;
  text::Analyzer analyzer_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::unique_ptr<index::Searcher> searcher_;
  std::unique_ptr<index::SnippetExtractor> snippets_;
};

// ------------------------------------------------------------ utilities

bool MakeDirs(const std::string& path) {
  std::string partial;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') partial = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool AppendFile(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

uint64_t FileHash(const std::string& path) {
  std::string bytes = ReadFile(path);
  return util::Fnv1a64(bytes.data(), bytes.size());
}

void SleepUntil(int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

/// One request through SubmitAsync with a blocking wait on its callback:
/// the way NetServer and the open-loop phase reach a frontend.
serving::Response SubmitAndWait(serving::Frontend* frontend,
                                const serving::Request& request) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  serving::Response out;
  const bool admitted =
      frontend->SubmitAsync(request, [&](serving::Response r) {
        std::lock_guard<std::mutex> lock(mu);
        out = std::move(r);
        done = true;
        cv.notify_one();
      });
  if (!admitted) return serving::Response{};
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

std::vector<std::string> Distinct(const std::vector<std::string>& queries) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const std::string& q : queries) {
    if (seen.insert(q).second) out.push_back(q);
  }
  return out;
}

/// Normalized keys whose stored entry differs between two snapshots.
std::set<std::string> ChangedKeys(const store::StoreSnapshot& before,
                                  const store::StoreSnapshot& after) {
  std::set<std::string> changed;
  if (&before == &after) return changed;
  const auto& a = before.store().entries();
  const auto& b = after.store().entries();
  for (const auto& [key, entry] : a) {
    auto it = b.find(key);
    if (it == b.end() || !store::StoredEntriesEqual(entry, it->second)) {
      changed.insert(key);
    }
  }
  for (const auto& [key, entry] : b) {
    if (a.find(key) == a.end()) changed.insert(key);
  }
  return changed;
}

// ----------------------------------------------------------- deployment

/// Everything the program runs on in one setup. Members are destroyed
/// in reverse order: refresher, server, cluster, node, mapping, testbed.
struct Deployment {
  std::string dir;
  std::unique_ptr<pipeline::Testbed> testbed;
  Components parts;
  std::string store_path;
  std::shared_ptr<const store::MappedStoreFile> mapped;
  std::unique_ptr<serving::ServingNode> node;
  std::unique_ptr<cluster::ShardedCluster> cluster;
  std::unique_ptr<net::NetServer> server;
  std::string tail_path;
  std::unique_ptr<serving::StoreRefresher> refresher;
  bool ok = true;
  std::string error;

  serving::Frontend* frontend() {
    return cluster != nullptr ? static_cast<serving::Frontend*>(cluster.get())
                              : node.get();
  }
  /// Stops admission and drains every in-flight callback.
  void Shutdown() {
    if (refresher != nullptr) refresher->Stop();
    if (server != nullptr) server->Stop();
    if (cluster != nullptr) cluster->Shutdown();
    if (node != nullptr) node->Shutdown();
  }
  ~Deployment() {
    Shutdown();
    std::remove(store_path.c_str());
    if (!tail_path.empty()) std::remove(tail_path.c_str());
  }
};

struct StoreTimes {
  double build_s = 0.0;
  double save_ms = 0.0;
  double map_ms = 0.0;
  size_t entries = 0;
};

/// BuildStore over the topic roots (as `optselect generate` does), Save
/// as v4, then Map with validation.
std::shared_ptr<const store::MappedStoreFile> BuildSaveMap(
    const Components& parts, bool plans, const std::string& path,
    SpanRecorder* rec, StoreTimes* times, std::string* error) {
  std::vector<std::string> roots;
  for (const auto& topic : parts.universe->topics) {
    roots.push_back(topic.root_query);
  }
  store::DiversificationStore built;
  int64_t t0 = NowNs();
  {
    Scope s(rec, "store.build", 0);
    times->entries = store::BuildStore(
        *parts.detector, *parts.searcher, *parts.snippets, *parts.analyzer,
        *parts.documents, roots, StoreOptions(plans), &built);
  }
  int64_t t1 = NowNs();
  util::Status saved;
  {
    Scope s(rec, "store.save", 0);
    saved = built.Save(path);
  }
  int64_t t2 = NowNs();
  if (!saved.ok()) {
    *error = "store save failed: " + saved.ToString();
    return nullptr;
  }
  util::Result<std::shared_ptr<const store::MappedStoreFile>> mapped =
      util::Status::Internal("unmapped");
  {
    Scope s(rec, "store.map", 0);
    mapped = store::MappedStoreFile::Map(path);
  }
  int64_t t3 = NowNs();
  times->build_s = (t1 - t0) / 1e9;
  times->save_ms = (t2 - t1) / 1e6;
  times->map_ms = (t3 - t2) / 1e6;
  if (!mapped.ok()) {
    *error = "store map failed: " + mapped.status().ToString();
    return nullptr;
  }
  return std::move(mapped).value();
}

void StartProgram(const WorkloadSpec& spec, Deployment* d) {
  const Components& p = d->parts;
  serving::ServingConfig nc = NodeConfig(spec, *p.popularity);
  if (spec.wire) {
    cluster::ClusterConfig cc;
    cc.num_shards = kWireShards;
    cc.replicate_hot = 0;
    cc.node = nc;
    d->cluster = std::make_unique<cluster::ShardedCluster>(
        d->mapped, p.searcher, p.snippets, p.analyzer, p.documents,
        p.popularity, cc);
    net::NetServerConfig sc;
    sc.port = 0;
    sc.max_connections = 16;
    sc.max_inflight_per_conn = 1 << 16;
    d->server = std::make_unique<net::NetServer>(d->cluster.get(), sc);
    if (!d->server->Start()) {
      d->ok = false;
      d->error = "net server failed to start: " + d->server->last_error();
    }
    return;
  }
  d->node = std::make_unique<serving::ServingNode>(
      store::StoreSnapshot::FromMapped(d->mapped), p.searcher, p.snippets,
      p.analyzer, p.documents, nc);
  if (spec.refresh) {
    d->tail_path = d->dir + "/tail.tsv";
    AppendFile(d->tail_path, "");
    serving::StoreRefresherConfig rc;
    rc.log_path = d->tail_path;
    rc.interval = std::chrono::hours(24);  // ticks come from the writer
    rc.builder = StoreOptions(true);
    d->refresher = std::make_unique<serving::StoreRefresher>(
        d->node.get(), p.searcher, p.snippets, p.analyzer, p.documents,
        *p.log, rc);
  }
}

/// One full setup: workload start to the first admissible request.
std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec,
                                  const std::string& dir, double* seconds,
                                  StoreTimes* times) {
  const int64_t t0 = NowNs();
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  d->store_path = dir + "/store.bin";
  d->testbed = std::make_unique<pipeline::Testbed>(BenchTestbedConfig());
  d->parts = FromTestbed(*d->testbed);
  d->mapped = BuildSaveMap(d->parts, spec.plans, d->store_path, nullptr,
                           times, &d->error);
  if (d->mapped == nullptr) {
    d->ok = false;
  } else {
    StartProgram(spec, d.get());
  }
  *seconds = (NowNs() - t0) / 1e9;
  return d;
}

InputSource SourceFor(const Deployment& d) {
  InputSource src;
  src.popularity = d.parts.popularity;
  for (const store::MappedEntry& e : d.mapped->entries()) {
    src.stored_keys.emplace_back(e.key);
  }
  std::sort(src.stored_keys.begin(), src.stored_keys.end());
  src.vocabulary = CorpusVocabulary(*d.parts.documents, 4000);
  src.universe = d.parts.universe;
  for (const querylog::QueryRecord& r : d.parts.log->records()) {
    src.log_end_timestamp = std::max(src.log_end_timestamp, r.timestamp);
  }
  return src;
}

TrafficSpec TrafficFor(const WorkloadSpec& spec, const InputSource& source,
                       double seconds) {
  TrafficSpec t = spec.traffic;
  if (spec.refresh) {
    const RefreshTraffic r = RefreshTrafficFor(*source.popularity);
    t.tail_share = r.tail_share;
    t.chunks = TickCount(r, seconds);
  }
  return t;
}

// ----------------------------------------------------------- references

/// Reference rankings for every distinct query, each from a code path
/// other than the one the workload serves with. Returns false (with a
/// reason) when the reference path did not take the expected route.
bool References(const WorkloadSpec& spec, Deployment* d,
                const std::vector<std::string>& distinct, RankingMap* out,
                std::string* why) {
  const Components& p = d->parts;
  serving::ServingConfig rc = NodeConfig(spec, *p.popularity);
  rc.num_workers = 2;
  rc.enable_cache = false;
  std::shared_ptr<const store::StoreSnapshot> snapshot;
  if (std::string(spec.name) == "plan_zipf") {
    // The streaming cold path over the same entries without plans.
    store::DiversificationStore heap = d->mapped->Materialize();
    store::DiversificationStore stripped;
    for (const auto& [key, entry] : heap.entries()) {
      store::StoredEntry copy = entry;
      copy.plan = store::QueryPlan();
      stripped.Put(std::move(copy)).IgnoreError();
    }
    stripped.set_version(heap.version());
    snapshot = store::StoreSnapshot::Own(std::move(stripped));
  } else if (std::string(spec.name) == "cold_zipf") {
    // Materialize-then-select instead of the streaming selector.
    rc.streaming_cold_path = false;
    snapshot = store::StoreSnapshot::FromMapped(d->mapped);
  } else {
    // wire_mix: one in-process node over the full store.
    snapshot = store::StoreSnapshot::FromMapped(d->mapped);
  }
  serving::ServingNode ref(snapshot, p.searcher, p.snippets, p.analyzer,
                           p.documents, rc);
  std::vector<serving::Response> answers = ServeAll(&ref, distinct);
  for (size_t i = 0; i < distinct.size(); ++i) {
    const serving::Response& a = answers[i];
    if (!a.ok) {
      *why = "reference failed for '" + distinct[i] + "'";
      return false;
    }
    bool expected_path = true;
    if (std::string(spec.name) == "plan_zipf") {
      expected_path = a.streaming_served;
    } else if (std::string(spec.name) == "cold_zipf") {
      expected_path = a.diversified && !a.streaming_served && !a.plan_served;
    }
    if (!expected_path) {
      *why = "reference for '" + distinct[i] + "' took the served path";
      return false;
    }
    (*out)[distinct[i]] = a.ranking;
  }
  return true;
}

// --------------------------------------------------------- refresh writer

struct TickRecord {
  double ms = 0.0;
  bool ok = true;
  std::set<std::string> changed;
};

/// The refresh_mix writer: once per tick interval of the schedule it
/// appends the next log chunk and runs one StoreRefresher tick.
struct Writer {
  Deployment* d = nullptr;
  std::vector<std::string> chunk_bytes;
  int64_t interval_ns = 0;
  std::vector<TickRecord> ticks;

  void Run(int64_t start_ns, CpuLedger* ledger) {
    ThreadMeter meter(ledger);
    for (size_t i = 0; i < chunk_bytes.size(); ++i) {
      SleepUntil(start_ns + static_cast<int64_t>(i + 1) * interval_ns);
      std::shared_ptr<const store::StoreSnapshot> before =
          d->node->snapshot();
      TickRecord tick;
      tick.ok = AppendFile(d->tail_path, chunk_bytes[i]);
      const int64_t readable = NowNs();
      meter.Enter();
      util::Status status = d->refresher->TickOnce();
      meter.Leave();
      tick.ms = (NowNs() - readable) / 1e6;
      tick.ok = tick.ok && status.ok();
      tick.changed = ChangedKeys(*before, *d->node->snapshot());
      ticks.push_back(std::move(tick));
    }
    meter.Publish();
  }
};

/// TSV bytes of each chunk, written by the program's own log writer.
std::vector<std::string> ChunkBytes(const WorkloadInputs& in,
                                    const std::string& dir) {
  std::vector<std::string> out;
  const std::string path = dir + "/chunk.tsv";
  for (const querylog::QueryLog& chunk : in.chunks) {
    chunk.SaveTsv(path).IgnoreError();
    out.push_back(ReadFile(path));
  }
  std::remove(path.c_str());
  return out;
}

// ------------------------------------------------------------ the phase

struct PhaseOutcome {
  size_t scheduled = 0;
  size_t sent = 0;
  size_t answered = 0;  ///< answered ok
  size_t rejected = 0;  ///< SubmitAsync false / frame not sent
  size_t not_ok = 0;    ///< ok == false (error frames included)
  size_t error_frames = 0;
  size_t missing = 0;   ///< admitted, never answered
  size_t mismatches = 0;
  size_t failed = 0;
  Distribution latency_ms;
  Distribution lateness_ms;
  /// Medians over the phase's windows (cpu_us_per_req is gated, p50_ms
  /// is printed).
  double p50_ms = 0.0;
  double cpu_us_per_req = 0.0;
  /// Whole-phase CPU per answered request (printed).
  double phase_cpu_us_per_req = 0.0;
  double program_cpu_ms = 0.0;
  double generator_cpu_ms = 0.0;
  double wall_s = 0.0;
  /// Peak resident set over the phase (VmHWM, reset after the
  /// references and the warm-up); 0 when the reset is unavailable.
  double serving_rss_mib = 0.0;
  double steal_pct = 0.0;  ///< vCPU time the hypervisor took, phase
  size_t windows = 0;
  std::vector<TickRecord> ticks;
  bool checks_ok = true;
  std::string why;
};

void Summarize(const PhaseResult& phase, PhaseOutcome* out) {
  const std::vector<Sample>& samples = phase.samples();
  const std::vector<Window> windows = phase.Windows();
  std::vector<double> latency, lateness;
  // Latency by the window of its scheduled send.
  std::vector<std::vector<double>> window_latency(windows.size());
  out->scheduled = samples.size();
  for (const Sample& s : samples) {
    if (s.sent_ns != 0) {
      ++out->sent;
      lateness.push_back((s.sent_ns - s.scheduled_ns) / 1e6);
    }
    if (!s.admitted) {
      ++out->rejected;
    } else if (!s.answered) {
      ++out->missing;
    } else if (!s.response.ok) {
      ++out->not_ok;
      if (s.error_frame) ++out->error_frames;
    } else {
      ++out->answered;
      const double ms = (s.done_ns - s.scheduled_ns) / 1e6;
      latency.push_back(ms);
      for (size_t w = 0; w < windows.size(); ++w) {
        if (s.scheduled_ns < windows[w].end_ns || w + 1 == windows.size()) {
          window_latency[w].push_back(ms);
          break;
        }
      }
    }
  }
  std::vector<double> window_p50, window_cpu;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (!window_latency[w].empty()) {
      window_p50.push_back(Distribute(std::move(window_latency[w])).p50);
    }
    if (windows[w].answered > 0) {
      window_cpu.push_back(windows[w].cpu_us_per_req);
    }
  }
  out->windows = windows.size();
  out->p50_ms = Median(window_p50);
  out->cpu_us_per_req = Median(window_cpu);
  out->latency_ms = Distribute(std::move(latency));
  out->lateness_ms = Distribute(std::move(lateness));
  out->program_cpu_ms = phase.program_cpu_ns() / 1e6;
  out->generator_cpu_ms = phase.generator_cpu_ns() / 1e6;
  out->wall_s = (phase.end_ns - phase.start_ns) / 1e9;
  out->phase_cpu_us_per_req =
      out->answered > 0 ? phase.program_cpu_ns() / 1e3 / out->answered : 0.0;
}

/// Post-run refresh_mix checks: every key answers like a fresh node over
/// the final snapshot, and keys no tick changed stayed bit-identical to
/// that answer on every request of the run.
size_t RefreshChecks(const WorkloadSpec& spec, Deployment* d,
                     const WorkloadInputs& in, const PhaseResult& phase,
                     const std::vector<TickRecord>& ticks) {
  const Components& p = d->parts;
  serving::ServingConfig rc = NodeConfig(spec, *p.popularity);
  rc.enable_cache = false;
  serving::ServingNode fresh(d->node->snapshot(), p.searcher, p.snippets,
                             p.analyzer, p.documents, rc);
  std::vector<std::string> distinct = Distinct(in.queries);
  std::vector<serving::Response> want = ServeAll(&fresh, distinct);
  std::vector<serving::Response> got = ServeAll(d->node.get(), distinct);
  RankingMap reference;
  size_t bad = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    reference[distinct[i]] = want[i].ranking;
    if (!want[i].ok || !got[i].ok || got[i].ranking != want[i].ranking) {
      ++bad;
    }
  }
  std::set<std::string> changed;
  for (const TickRecord& t : ticks) {
    changed.insert(t.changed.begin(), t.changed.end());
  }
  const std::vector<Sample>& samples = phase.samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (!s.answered || !s.response.ok) continue;  // counted already
    if (changed.count(serving::NormalizeQuery(in.queries[i])) > 0) continue;
    if (s.response.ranking != reference[in.queries[i]]) ++bad;
  }
  return bad;
}

/// Runs setup #1, the references, the measured phase and the checks.
/// The deployment stays up (for the traced run) unless it failed.
PhaseOutcome MeasuredPhase(const WorkloadSpec& spec, const RunOptions& o,
                           Deployment* d, const WorkloadInputs& in) {
  PhaseOutcome out;
  std::vector<std::string> distinct = Distinct(in.queries);
  RankingMap reference;
  if (!spec.refresh &&
      !References(spec, d, distinct, &reference, &out.why)) {
    out.checks_ok = false;
  }
  if (spec.wire) {
    // Untimed warm-up: one pass over the distinct keys fills the shard
    // caches, so the phase measures the hit path.
    ServeAll(d->cluster.get(), distinct);
  }
  if (spec.refresh) {
    const querylog::PopularityMap& pop = *d->parts.popularity;
    const RefreshTraffic r = RefreshTrafficFor(pop);
    std::printf("refresh traffic: tail share %.6f (the log's singleton share "
                "of its %zu distinct queries), cache %zu entries (the log's "
                "distinct queries), %zu ticks, one every %.1f s "
                "(StoreRefresherConfig's default interval)\n",
                r.tail_share, pop.distinct(), r.cache_capacity,
                in.chunks.size(), r.tick_interval_ns / 1e9);
  }
  std::printf("phase: %zu requests scheduled over %.1f s (%zu distinct)\n",
              in.queries.size(), o.seconds, distinct.size());
  std::fflush(stdout);
  // The references and the warm-up are the benchmark's: the serving
  // peak starts from here.
  const bool rss_reset = ResetPeakRss();

  PhaseResult phase;
  Writer writer;
  if (spec.wire) {
    phase = RunWire(d->server->port(), kWireConnections, in.queries,
                    in.offsets_ns);
  } else if (spec.refresh) {
    writer.d = d;
    writer.chunk_bytes = ChunkBytes(in, d->dir);
    writer.interval_ns =
        RefreshTrafficFor(*d->parts.popularity).tick_interval_ns;
    phase = RunInProcess(
        d->node.get(), in.queries, in.offsets_ns,
        [&writer](int64_t start, CpuLedger* ledger) {
          writer.Run(start, ledger);
        });
  } else {
    phase = RunInProcess(d->node.get(), in.queries, in.offsets_ns);
  }
  out.serving_rss_mib = rss_reset ? PeakRssMib() : 0.0;
  const HostTicks& host0 = phase.marks.front().host;
  const HostTicks& host1 = phase.marks.back().host;
  if (host1.total > host0.total) {
    out.steal_pct = 100.0 * static_cast<double>(host1.steal - host0.steal) /
                    static_cast<double>(host1.total - host0.total);
  }
  if (!phase.drained) {
    d->Shutdown();  // settle late callbacks before reading the samples
    out.checks_ok = false;
    out.why = "not every admitted request was answered within 30 s";
  }
  Summarize(phase, &out);
  out.ticks = std::move(writer.ticks);
  if (spec.refresh) {
    for (const TickRecord& t : out.ticks) {
      if (!t.ok) {
        out.checks_ok = false;
        out.why = "a refresh tick failed";
      }
    }
    if (phase.drained) {
      out.mismatches = RefreshChecks(spec, d, in, phase, out.ticks);
    }
  } else {
    CountBadAnswers(phase.samples(), in.queries, reference, &out.mismatches);
  }
  out.failed = out.rejected + out.not_ok + out.missing + out.mismatches;
  if (out.answered == 0) {
    out.checks_ok = false;
    out.why = "no request was answered";
  }
  return out;
}

void PrintPhase(const WorkloadSpec& spec, const PhaseOutcome& p) {
  std::printf(
      "requests: scheduled %zu sent %zu answered %zu failed %zu (rejected "
      "%zu, not ok %zu, error frames %zu, missing %zu, mismatches %zu)\n",
      p.scheduled, p.sent, p.answered, p.failed, p.rejected, p.not_ok,
      p.error_frames, p.missing, p.mismatches);
  std::printf("e2e latency: p50 %.6f ms p99 %.6f ms max %.6f ms over %zu "
              "samples (%zu beyond p99)\n",
              p.latency_ms.p50, p.latency_ms.p99, p.latency_ms.max,
              p.latency_ms.count,
              p.latency_ms.count - static_cast<size_t>(
                                       0.99 * p.latency_ms.count + 0.999999));
  std::printf("generator lateness: p99 %.6f ms max %.6f ms\n",
              p.lateness_ms.p99, p.lateness_ms.max);
  std::printf("host: %.2f%% of vCPU time stolen by the hypervisor during "
              "the phase\n",
              p.steal_pct);
  std::printf("cpu: program %.3f ms, generator (excluded) %.3f ms, phase "
              "wall %.3f s, %.6f us per request over the phase\n",
              p.program_cpu_ms, p.generator_cpu_ms, p.wall_s,
              p.phase_cpu_us_per_req);
  std::printf("medians over %zu windows: p50 %.6f ms (p50_ms, not gated: "
              "see README), cpu %.6f us per request (cpu_us_per_req)\n",
              p.windows, p.p50_ms, p.cpu_us_per_req);
  if (spec.refresh) {
    std::vector<double> ms;
    size_t changed = 0;
    for (const TickRecord& t : p.ticks) {
      ms.push_back(t.ms);
      changed += t.changed.size();
    }
    std::printf("refresh: %zu ticks, median tick %.6f ms, %zu changed keys "
                "(refresh_ms, not gated: see README)\n",
                p.ticks.size(), Median(ms), changed);
  }
  if (!p.checks_ok) std::printf("CHECK FAILED: %s\n", p.why.c_str());
}

// ------------------------------------------------------ traced replay

/// The node's per-request machinery, re-run call by call from outside:
/// the same public functions ServingNode::ComputeRanking calls, each in
/// a span.
struct Mirror {
  explicit Mirror(const WorkloadSpec& s, const Components& c)
      : spec(s), parts(c), params(Params()),
        fingerprint(serving::ParamsFingerprint(params)) {
    size_t shards = spec.wire ? kWireShards : 1;
    const serving::ResultCacheOptions opts =
        NodeConfig(spec, *parts.popularity).cache;
    for (size_t i = 0; i < shards; ++i) {
      caches.push_back(
          std::make_unique<serving::ShardedLruCache<serving::Response>>(opts));
    }
  }

  const WorkloadSpec& spec;
  const Components& parts;
  pipeline::PipelineParams params;
  uint64_t fingerprint;
  core::ParallelOptSelectDiversifier diversifier{1};
  core::SelectScratch scratch;
  core::StreamingTopK stream;
  std::vector<std::unique_ptr<serving::ShardedLruCache<serving::Response>>>
      caches;
  // Work counts of the traced replay.
  size_t plan_requests = 0;
  double plan_bytes = 0.0;
  size_t searches = 0;
  size_t candidates = 0;
  size_t streamed_candidates = 0;
  size_t materialized = 0;
  size_t offered = 0;
  size_t pruned = 0;

  serving::Response Compute(const store::StoreSnapshot& snap,
                            const std::string& normalized, SpanRecorder* rec,
                            uint32_t id) {
    serving::Response r;
    r.ok = true;
    r.store_version = snap.version();
    store::EntryRef entry;
    {
      Scope s(rec, "store.find", id);
      entry = snap.Find(normalized);
    }
    const bool ambiguous =
        static_cast<bool>(entry) && entry.num_specializations() >= 2;
    const size_t k = params.diversify.k;
    if (ambiguous &&
        entry.HasCompatiblePlan(params.num_candidates, params.threshold_c)) {
      core::DiversificationView view = entry.PlanView();
      {
        Scope s(rec, "core.select", id);
        diversifier.SelectInto(view, params.diversify, &scratch,
                               &scratch.picks);
      }
      r.diversified = true;
      r.plan_served = true;
      r.num_specializations = entry.PlanNumSpecializations();
      {
        Scope s(rec, "pipeline.assemble", id);
        r.ranking = pipeline::AssembleRanking(
            entry.PlanDocs(), entry.PlanNumCandidates(), scratch.picks, k,
            &scratch.taken);
      }
      // Plan columns read: docs (4 B), relevance and weighted sums (8 B
      // each) per candidate, utilities (8 B) per candidate x spec, and
      // probability (8 B) + spec order (4 B) per spec.
      const double n = static_cast<double>(entry.PlanNumCandidates());
      const double m = static_cast<double>(entry.PlanNumSpecializations());
      if (rec != nullptr) {
        plan_bytes += n * 20.0 + n * m * 8.0 + m * 12.0;
        ++plan_requests;
      }
      return r;
    }
    std::vector<text::TermId> terms;
    {
      Scope s(rec, "text.analyze", id);
      terms = parts.analyzer->AnalyzeReadOnly(normalized);
    }
    index::ResultList rq;
    {
      Scope s(rec, "index.search", id);
      rq = parts.searcher->SearchTerms(terms, params.num_candidates);
    }
    if (rec != nullptr) {
      ++searches;
      candidates += rq.size();
    }
    if (rq.empty()) return r;
    if (!ambiguous) {
      size_t top = std::min(k, rq.size());
      r.ranking.reserve(top);
      for (size_t i = 0; i < top; ++i) r.ranking.push_back(rq[i].doc);
      return r;
    }
    const size_t m = entry.num_specializations();
    std::vector<pipeline::SpecializationRef> refs(m);
    std::vector<double> probs(m);
    for (size_t j = 0; j < m; ++j) {
      probs[j] = entry.spec_probability(j);
      refs[j].probability = probs[j];
      refs[j].results = entry.heap_surrogates(j);
      refs[j].spans = entry.spec_spans(j);
    }
    std::vector<double> inv_harmonic = pipeline::InverseHarmonics(refs);
    pipeline::CandidateStream stream_in(&rq, parts.snippets, parts.documents,
                                        &terms);
    std::vector<double> row(m);
    {
      Scope scan(rec, "core.scan", id);
      stream.Begin(probs.data(), m, k, params.diversify.lambda);
      while (!stream_in.Done()) {
        if (stream.CanPrune(stream_in.relevance())) {
          stream.Skip();
          stream_in.Advance();
          continue;
        }
        const text::TermVector* doc = nullptr;
        {
          Scope s(rec, "pipeline.materialize", id);
          doc = &stream_in.Materialize();
        }
        {
          Scope s(rec, "pipeline.utility", id);
          pipeline::ComputeUtilityRow(*doc, refs, inv_harmonic,
                                      params.threshold_c, row.data());
        }
        stream.Push(stream_in.position(), stream_in.relevance(), row.data());
        stream_in.Advance();
      }
    }
    {
      Scope s(rec, "core.finalize", id);
      stream.Finalize(k, &scratch.picks);
    }
    if (rec != nullptr) {
      streamed_candidates += rq.size();
      materialized += stream_in.materialized();
      offered += stream.offered();
      pruned += stream.pruned();
    }
    std::vector<DocId> docs;
    docs.reserve(rq.size());
    for (const index::SearchResult& hit : rq) docs.push_back(hit.doc);
    r.diversified = true;
    r.streaming_served = true;
    r.num_specializations = m;
    {
      Scope s(rec, "pipeline.assemble", id);
      r.ranking = pipeline::AssembleRanking(docs.data(), docs.size(),
                                            scratch.picks, k, &scratch.taken);
    }
    return r;
  }

  /// Sets the mirror cache of `shard` to what the program saw for this
  /// request (hit or miss). Runs outside every span and every timing.
  void Align(const store::StoreSnapshot& snap, size_t shard,
             const std::string& raw, bool program_hit) {
    if (!spec.cache) return;
    std::string normalized = serving::NormalizeQuery(raw);
    std::string key = serving::MakeCacheKey(normalized, fingerprint);
    auto& cache = *caches[shard];
    if (!program_hit) {
      cache.Erase(key);
    } else if (cache.Get(key) == nullptr) {
      cache.Put(key, std::make_shared<const serving::Response>(
                         Compute(snap, normalized, nullptr, 0)));
    }
  }

  /// One request as a node handles it once routed to `shard`: key,
  /// cache, compute, fill.
  serving::Response Serve(const store::StoreSnapshot& snap, size_t shard,
                          const std::string& raw, SpanRecorder* rec,
                          uint32_t id) {
    Scope root(rec, "serving.compute", id);
    std::string normalized;
    std::string key;
    {
      Scope s(rec, "serving.key", id);
      normalized = serving::NormalizeQuery(raw);
      key = serving::MakeCacheKey(normalized, fingerprint);
    }
    if (spec.cache) {
      std::shared_ptr<const serving::Response> hit;
      {
        Scope s(rec, "serving.cache_get", id);
        hit = caches[shard]->Get(key);
      }
      if (hit != nullptr) {
        serving::Response r = *hit;
        r.cache_hit = true;
        return r;
      }
    }
    serving::Response r = Compute(snap, normalized, rec, id);
    if (spec.cache) {
      caches[shard]->Put(key, std::make_shared<const serving::Response>(r));
    }
    return r;
  }
};

struct RefreshTrace {
  size_t ticks = 0;
  size_t swaps = 0;
  size_t mismatched_ticks = 0;
  bool final_equal = true;
};

/// Replays the program's refresh ticks step by step on a mirror node
/// that starts from the same mapped snapshot, tracing each tick step,
/// and checks every tick's changed keys and the final snapshot against
/// what the program produced.
RefreshTrace TraceRefresh(const WorkloadSpec& spec, Deployment* d,
                          const WorkloadInputs& in,
                          const std::vector<TickRecord>& program_ticks,
                          SpanRecorder* rec) {
  RefreshTrace out;
  const Components& p = d->parts;
  serving::ServingConfig mc = NodeConfig(spec, *p.popularity);
  mc.num_workers = 1;
  serving::ServingNode mirror(store::StoreSnapshot::FromMapped(d->mapped),
                              p.searcher, p.snippets, p.analyzer,
                              p.documents, mc);
  // Fill its cache like the program's so reloads have entries to erase.
  std::vector<std::string> distinct = Distinct(in.queries);
  ServeAll(&mirror, distinct);

  const std::string tail = d->dir + "/mirror_tail.tsv";
  std::remove(tail.c_str());
  AppendFile(tail, "");
  querylog::LogIngestor ingestor(tail);
  ingestor.SkipToEnd().IgnoreError();
  // The refresher's own mining state: defaults, seeded by one Train on
  // the initial log with time-only segmentation.
  serving::StoreRefresherConfig defaults;
  recommend::ShortcutsRecommender recommender(defaults.recommender);
  recommend::AmbiguityDetector detector(&recommender, defaults.detector);
  querylog::SessionSegmenter segmenter(defaults.segmenter);
  recommender.Train(*p.log, segmenter.Segment(*p.log, nullptr));
  store::StoreBuilderOptions store_options = StoreOptions(true);

  std::vector<std::string> chunks = ChunkBytes(in, d->dir);
  for (size_t i = 0; i < program_ticks.size() && i < chunks.size(); ++i) {
    AppendFile(tail, chunks[i]);
    const uint32_t id = static_cast<uint32_t>(i + 1);
    Scope tick(rec, "refresh.tick", id);
    querylog::IngestDelta delta;
    {
      Scope s(rec, "querylog.poll", id);
      auto polled = ingestor.Poll();
      if (polled.ok()) delta = std::move(polled).value();
    }
    std::vector<querylog::Session> sessions;
    {
      Scope s(rec, "querylog.segment", id);
      sessions = segmenter.Segment(delta.log, nullptr);
    }
    {
      Scope s(rec, "recommend.train_incremental", id);
      recommender.TrainIncremental(delta.log, sessions);
    }
    std::shared_ptr<const store::StoreSnapshot> base = mirror.snapshot();
    store::StoreDelta mined;
    {
      Scope s(rec, "store.mine_delta", id);
      mined = store::MineDelta(detector, *p.searcher, *p.snippets,
                               *p.analyzer, *p.documents,
                               delta.dirty_queries, store_options,
                               base->store());
    }
    std::set<std::string> changed;
    if (!mined.empty()) {
      store::SnapshotBuildResult built;
      {
        Scope s(rec, "store.build_snapshot", id);
        built = store::BuildSnapshot(base.get(), mined);
      }
      changed.insert(built.changed_keys.begin(), built.changed_keys.end());
      if (!built.changed_keys.empty()) {
        Scope s(rec, "serving.reload", id);
        mirror.ReloadStore(built.snapshot, built.changed_keys);
        ++out.swaps;
      }
    }
    ++out.ticks;
    if (changed != program_ticks[i].changed) ++out.mismatched_ticks;
  }
  std::remove(tail.c_str());
  out.final_equal =
      ChangedKeys(*mirror.snapshot(), *d->node->snapshot()).empty();
  return out;
}

// ----------------------------------------------------------- the runs

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

void PrintHeader(const WorkloadSpec& spec, const RunOptions& o) {
  PrintHostRecord();
  std::printf(
      "workload %s seed %llu seconds %.1f trace %d: rate %.0f req/s, %zu "
      "worker(s)%s, cache %s, plans %s%s\n",
      spec.name, static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, spec.traffic.rate, spec.workers,
      spec.wire ? " per shard x 2 shards behind a loopback NetServer" : "",
      spec.cache ? "on" : "off", spec.plans ? "on" : "off",
      spec.refresh ? ", StoreRefresher writer" : "");
  std::fflush(stdout);
}

int Finish(const Report& report, bool correct, size_t attempted,
           size_t failed) {
  report.Print();
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int RunEndToEnd(const WorkloadSpec& spec, const RunOptions& o,
                const std::string& dir) {
  std::vector<double> setups;
  double setup = 0.0;
  StoreTimes times;
  std::unique_ptr<Deployment> d = SetUp(spec, dir, &setup, &times);
  setups.push_back(setup);
  if (!d->ok) {
    std::fprintf(stderr, "setup failed: %s\n", d->error.c_str());
    return 1;
  }
  const double setup_rss_mib = PeakRssMib();
  const InputSource source = SourceFor(*d);
  WorkloadInputs in = MakeInputs(TrafficFor(spec, source, o.seconds), source,
                                 o.seed, o.seconds);
  PhaseOutcome phase = MeasuredPhase(spec, o, d.get(), in);
  d.reset();
  // More setups, each torn down at once: setup_s is their median.
  for (int i = 1; i < kSetups; ++i) {
    std::unique_ptr<Deployment> again = SetUp(spec, dir, &setup, &times);
    setups.push_back(setup);
    if (!again->ok) {
      phase.checks_ok = false;
      phase.why = "repeated setup failed: " + again->error;
    }
  }
  std::printf("setup: ");
  for (double s : setups) std::printf("%.6f s ", s);
  std::printf("(store %zu entries, build %.3f s, save %.3f ms, map %.3f ms)\n",
              times.entries, times.build_s, times.save_ms, times.map_ms);
  if (phase.serving_rss_mib <= 0.0) {
    phase.checks_ok = false;
    phase.why = "cannot reset the peak resident set (/proc/self/clear_refs)";
  }
  PrintPhase(spec, phase);
  std::printf("rss: setup peak %.3f MiB, serving peak %.3f MiB (rss_mib is "
              "the larger)\n",
              setup_rss_mib, phase.serving_rss_mib);

  Report report;
  report.Add("setup_s", Median(setups), "s");
  report.Add("cpu_us_per_req", phase.cpu_us_per_req, "us");
  report.Add("rss_mib", std::max(setup_rss_mib, phase.serving_rss_mib),
             "MiB");
  bool correct = phase.checks_ok && phase.failed == 0;
  return Finish(report, correct, phase.scheduled, phase.failed);
}

int RunTraced(const WorkloadSpec& spec, const RunOptions& o,
              const std::string& dir) {
  Report report;
  bool correct = true;
  auto fail = [&](const std::string& why) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct = false;
  };

  // 1. The setup, replayed component by component.
  SpanRecorder setup_rec(64);
  uint64_t traced_hash = 0;
  StoreTimes traced_times;
  std::string traced_store = dir + "/traced_store.bin";
  {
    TracedTestbed tb(BenchTestbedConfig(), &setup_rec);
    std::string error;
    auto mapped = BuildSaveMap(tb.parts(), spec.plans, traced_store,
                               &setup_rec, &traced_times, &error);
    if (mapped == nullptr) fail(error);
    traced_hash = FileHash(traced_store);
    std::remove(traced_store.c_str());
  }
  std::map<std::string, int64_t> setup_ns = setup_rec.TotalTimes();

  // 2. The program, set up as in the end-to-end run; its store must be
  //    byte-identical to the traced replay's.
  double setup_s = 0.0;
  StoreTimes times;
  std::unique_ptr<Deployment> d = SetUp(spec, dir, &setup_s, &times);
  if (!d->ok) {
    std::fprintf(stderr, "setup failed: %s\n", d->error.c_str());
    return 1;
  }
  if (FileHash(d->store_path) != traced_hash) {
    fail("traced setup built a different store than the Testbed");
  }
  const double file_mib = d->mapped->mapped_bytes() / (1024.0 * 1024.0);

  // 3. The open-loop phase, untraced, for the program's own counters.
  const InputSource source = SourceFor(*d);
  WorkloadInputs in = MakeInputs(TrafficFor(spec, source, o.seconds), source,
                                 o.seed, o.seconds);
  PhaseOutcome phase = MeasuredPhase(spec, o, d.get(), in);
  PrintPhase(spec, phase);
  if (!phase.checks_ok || phase.failed > 0) correct = false;

  serving::ServingStats stats;
  std::vector<serving::ServingStats> shard_stats;
  if (spec.wire) {
    cluster::ClusterStats cs = d->cluster->Stats();
    stats = cs.total;
    shard_stats = cs.per_shard;
  } else {
    stats = d->node->Stats();
  }
  net::NetServerStats net_stats;
  if (d->server != nullptr) net_stats = d->server->stats();

  // 4. Sequential replay of the first requests, one at a time on a
  //    thread of their own (like the program's workers): the tier's own
  //    calls, reached the way the open-loop phase reaches them, then the
  //    same request call by call, untraced and traced. The passes are
  //    interleaved per request, so host noise lands on all of them
  //    alike; with the cache off the order also rotates.
  const size_t n = std::min(spec.replay_requests, in.queries.size());
  std::vector<std::string> replay(in.queries.begin(), in.queries.begin() + n);
  std::vector<serving::Response> program(n);
  std::vector<std::shared_ptr<const store::StoreSnapshot>> snaps;
  if (spec.wire) {
    for (size_t s = 0; s < kWireShards; ++s) {
      snaps.push_back(d->cluster->shard(s)->snapshot());
    }
  } else {
    snaps.push_back(d->node->snapshot());
  }
  Mirror untraced(spec, d->parts);
  Mirror traced(spec, d->parts);
  SpanRecorder rec(1 << 20);
  int64_t service_ns = 0;  // the tier's public call (the budget's base)
  int64_t cluster_ns = 0;  // ShardedCluster::SubmitAsync (wire_mix)
  int64_t node_ns = 0;     // the owning ServingNode's SubmitAsync
  int64_t untraced_ns = 0;
  size_t mismatched = 0;
  std::thread replayer([&] {
    net::RemoteClient client;
    if (spec.wire && !client.Connect("127.0.0.1", d->server->port())) {
      ++mismatched;
      return;
    }
    auto timed = [](int64_t* acc, auto&& call) {
      const int64_t t0 = NowNs();
      call();
      *acc += NowNs() - t0;
    };
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = static_cast<uint32_t>(i + 1);
      const serving::Request request(replay[i], id);
      // The owning shard, untimed; the traced pass times the router's
      // owner hash in its own span.
      const size_t shard =
          spec.wire ? d->cluster->router().OwnerOf(replay[i]) : 0;
      serving::ServingNode* node =
          spec.wire ? d->cluster->shard(shard) : d->node.get();
      auto run_program = [&] {
        if (!spec.wire) {
          timed(&service_ns,
                [&] { program[i] = SubmitAndWait(node, request); });
          return;
        }
        // NetServer -> ShardedCluster::SubmitAsync -> QueryRouter ->
        // owning node, then the two inner tiers alone, in turns.
        timed(&service_ns, [&] { program[i] = client.Submit(request); });
        auto via_cluster = [&] {
          timed(&cluster_ns, [&] { SubmitAndWait(d->cluster.get(), request); });
        };
        auto via_node = [&] {
          timed(&node_ns, [&] { SubmitAndWait(node, request); });
        };
        if (i % 2 == 0) {
          via_cluster();
          via_node();
        } else {
          via_node();
          via_cluster();
        }
      };
      auto run_untraced = [&] {
        untraced.Align(*snaps[shard], shard, replay[i], program[i].cache_hit);
        timed(&untraced_ns, [&] {
          untraced.Serve(*snaps[shard], shard, replay[i], nullptr, id);
        });
      };
      serving::Response replayed;
      auto run_traced = [&] {
        traced.Align(*snaps[shard], shard, replay[i], program[i].cache_hit);
        size_t routed = 0;
        if (spec.wire) {
          Scope s(&rec, "cluster.route", id);
          routed = d->cluster->router().OwnerOf(replay[i]);
        }
        replayed = traced.Serve(*snaps[routed], routed, replay[i], &rec, id);
      };
      // The cache alignment needs the program's hit flag first, so with
      // the cache on the program goes first and only the replays swap.
      static constexpr int kOrders[5][3] = {
          {0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 1, 2}, {0, 2, 1}};
      const int* order = spec.cache ? kOrders[3 + i % 2] : kOrders[i % 3];
      for (size_t k = 0; k < 3; ++k) {
        switch (order[k]) {
          case 0: run_program(); break;
          case 1: run_untraced(); break;
          default: run_traced(); break;
        }
      }
      if (!program[i].ok || replayed.ranking != program[i].ranking ||
          replayed.diversified != program[i].diversified) {
        ++mismatched;
      }
    }
  });
  replayer.join();
  if (mismatched > 0) {
    fail(std::to_string(mismatched) +
         " traced rankings differ from the program's answers");
  }
  auto mean_us = [n](int64_t ns) {
    return n > 0 ? ns / 1e3 / static_cast<double>(n) : 0.0;
  };
  const double service_us = mean_us(service_ns);
  const double cluster_us = spec.wire ? mean_us(cluster_ns) : service_us;
  const double node_us = spec.wire ? mean_us(node_ns) : service_us;
  const double untraced_us = mean_us(untraced_ns);

  // Wire codec of the same requests and answers, both directions.
  double bytes = 0.0;
  if (spec.wire) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = static_cast<uint32_t>(i + 1);
      std::string req_bytes, resp_bytes;
      {
        Scope s(&rec, "net.encode", id);
        req_bytes = net::EncodeRequestFrame(serving::Request(replay[i], id));
        resp_bytes = net::EncodeResponseFrame(id, program[i]);
      }
      serving::Request req;
      serving::Response resp;
      bool decoded = false;
      {
        Scope s(&rec, "net.decode", id);
        net::FrameParser parser;
        decoded = parser.Feed(req_bytes.data(), req_bytes.size()) &&
                  parser.Feed(resp_bytes.data(), resp_bytes.size()) &&
                  parser.HasFrame() &&
                  net::DecodeRequestPayload(parser.Next(), &req) &&
                  parser.HasFrame() &&
                  net::DecodeResponsePayload(parser.Next(), &resp);
      }
      if (!decoded || req.query != replay[i] ||
          resp.ranking != program[i].ranking) {
        ++mismatched;
      }
      bytes += static_cast<double>(req_bytes.size() + resp_bytes.size());
    }
    if (mismatched > 0) fail("wire codec round trip differs");
  }

  // 5. refresh_mix: the tick steps on a mirror node.
  RefreshTrace refresh;
  if (spec.refresh) {
    refresh = TraceRefresh(spec, d.get(), in, phase.ticks, &rec);
    if (refresh.mismatched_ticks > 0 || !refresh.final_equal) {
      fail("traced refresh ticks differ from the program's snapshots");
    }
  }

  // 6. The budget: service = net.rtt + cluster.route + serving.handoff
  //    + the node's layer self times + unaccounted. Each tier's share is
  //    the difference of two untraced means, so the sum holds exactly;
  //    unaccounted is the untraced compute less the traced layer self
  //    times (the compute's own glue, less the spans' overhead).
  std::map<std::string, int64_t> self = rec.SelfTimes();
  std::map<std::string, int64_t> total = rec.TotalTimes();
  auto per_req_us = [&](const char* name) {
    return n > 0 ? self[name] / 1e3 / static_cast<double>(n) : 0.0;
  };
  auto per_tick_ms = [&](const char* name) {
    return refresh.ticks > 0
               ? self[name] / 1e6 / static_cast<double>(refresh.ticks)
               : 0.0;
  };
  const double traced_us =
      n > 0 ? total["serving.compute"] / 1e3 / static_cast<double>(n) : 0.0;
  const double rtt_us = service_us - cluster_us;
  const double route_us = cluster_us - node_us;
  const double handoff_us = node_us - untraced_us;
  const char* layers[] = {
      "serving.key",     "serving.cache_get",    "store.find",
      "core.select",     "core.scan",            "core.finalize",
      "text.analyze",    "index.search",         "pipeline.materialize",
      "pipeline.utility", "pipeline.assemble"};
  double layer_sum = 0.0;
  for (const char* l : layers) layer_sum += per_req_us(l);
  const double unaccounted_us = untraced_us - layer_sum;
  std::printf(
      "budget: service %.3f us = net.rtt %.3f + cluster.route %.3f + "
      "serving.handoff %.3f + layers %.3f + unaccounted %.3f (sum %.3f)\n",
      service_us, rtt_us, route_us, handoff_us, layer_sum, unaccounted_us,
      rtt_us + route_us + handoff_us + layer_sum + unaccounted_us);
  if (spec.wire) {
    std::printf("router: owner-hash span %.3f us of cluster.route (traced "
                "QueryRouter::OwnerOf)\n",
                per_req_us("cluster.route"));
  }
  const double overhead_pct =
      untraced_us > 0 ? 100.0 * (traced_us - untraced_us) / untraced_us : 0.0;
  std::printf("tracing overhead: traced compute %.3f us vs untraced "
              "sequential replay %.3f us per request (%.2f%%), %zu spans\n",
              traced_us, untraced_us, overhead_pct, rec.spans().size());

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double shard_skew = 0.0;
  if (!shard_stats.empty()) {
    double max = 0.0, sum = 0.0;
    for (const serving::ServingStats& s : shard_stats) {
      max = std::max(max, static_cast<double>(s.completed));
      sum += static_cast<double>(s.completed);
    }
    shard_skew = ratio(max, sum / shard_stats.size());
  }
  std::vector<double> tick_ms;
  size_t changed = 0;
  for (const TickRecord& t : phase.ticks) {
    tick_ms.push_back(t.ms);
    changed += t.changed.size();
  }

  report.Add("serving.handoff_us", handoff_us, "us");
  report.Add("serving.key_us", per_req_us("serving.key"), "us");
  report.Add("serving.cache_get_us", per_req_us("serving.cache_get"), "us");
  report.Add("serving.cache_hit_ratio",
             ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
             "ratio");
  report.Add("serving.evictions", stats.cache_evictions, "count");
  report.Add("serving.batch_mean", ratio(stats.batched_requests, stats.batches),
             "requests");
  report.Add("serving.dedup_ratio",
             ratio(stats.batch_dedup_hits, stats.batched_requests), "ratio");
  report.Add("serving.reload_ms",
             refresh.swaps > 0 ? self["serving.reload"] / 1e6 / refresh.swaps
                               : 0.0,
             "ms");
  report.Add("serving.invalidated", stats.cache_invalidations, "count");
  report.Add("serving.rejected", stats.rejected, "count");
  report.Add("cluster.route_us", route_us, "us");
  report.Add("cluster.shard_skew", shard_skew, "ratio");
  report.Add("store.find_us", per_req_us("store.find"), "us");
  report.Add("store.plan_kib",
             ratio(traced.plan_bytes / 1024.0, traced.plan_requests), "KiB");
  report.Add("store.build_s", setup_ns["store.build"] / 1e9, "s");
  report.Add("store.save_ms", setup_ns["store.save"] / 1e6, "ms");
  report.Add("store.map_ms", setup_ns["store.map"] / 1e6, "ms");
  report.Add("store.mine_delta_ms", per_tick_ms("store.mine_delta"), "ms");
  report.Add("store.build_snapshot_ms", per_tick_ms("store.build_snapshot"),
             "ms");
  report.Add("store.changed_keys",
             ratio(static_cast<double>(changed), phase.ticks.size()),
             "count");
  report.Add("store.entries", static_cast<double>(times.entries), "count");
  report.Add("store.file_mib", file_mib, "MiB");
  report.Add("core.select_us", per_req_us("core.select"), "us");
  report.Add("core.scan_us", per_req_us("core.scan"), "us");
  report.Add("core.finalize_us", per_req_us("core.finalize"), "us");
  report.Add("core.prune_ratio", ratio(traced.pruned, traced.offered),
             "ratio");
  report.Add("text.analyze_us", per_req_us("text.analyze"), "us");
  report.Add("index.search_us", per_req_us("index.search"), "us");
  report.Add("index.candidates", ratio(traced.candidates, traced.searches),
             "count");
  report.Add("index.build_s", setup_ns["index.build"] / 1e9, "s");
  report.Add("pipeline.materialize_us", per_req_us("pipeline.materialize"),
             "us");
  report.Add("pipeline.utility_us", per_req_us("pipeline.utility"), "us");
  report.Add("pipeline.materialized_ratio",
             ratio(traced.materialized, traced.streamed_candidates), "ratio");
  report.Add("pipeline.assemble_us", per_req_us("pipeline.assemble"), "us");
  report.Add("net.encode_us", per_req_us("net.encode"), "us");
  report.Add("net.decode_us", per_req_us("net.decode"), "us");
  report.Add("net.rtt_us", rtt_us, "us");
  report.Add("net.bytes_per_req", ratio(bytes, n), "bytes");
  report.Add("net.shed", net_stats.shed, "count");
  report.Add("net.protocol_errors", net_stats.protocol_errors, "count");
  report.Add("synth.universe_ms", setup_ns["synth.universe"] / 1e6, "ms");
  report.Add("corpus.generate_s", setup_ns["corpus.generate"] / 1e9, "s");
  report.Add("querylog.generate_s", setup_ns["querylog.generate"] / 1e9, "s");
  report.Add("querylog.sessions_s", setup_ns["querylog.sessions"] / 1e9, "s");
  report.Add("recommend.train_s", setup_ns["recommend.train"] / 1e9, "s");
  report.Add("querylog.poll_ms",
             per_tick_ms("querylog.poll") + per_tick_ms("querylog.segment"),
             "ms");
  report.Add("recommend.train_incremental_ms",
             per_tick_ms("recommend.train_incremental"), "ms");
  report.Add("p50_ms", phase.p50_ms, "ms");
  report.Add("refresh_ms", Median(tick_ms), "ms");
  report.Add("trace.service_us", service_us, "us");
  report.Add("trace.unaccounted_us", unaccounted_us, "us");
  report.Add("trace.overhead_pct", overhead_pct, "%");

  // Spans go to disk once, at the end.
  const std::string span_path = dir + "/spans.tsv";
  if (setup_rec.Write(dir + "/setup_spans.tsv") && rec.Write(span_path)) {
    std::printf("spans: %s\n", span_path.c_str());
  }
  d->Shutdown();
  return Finish(report, correct, phase.scheduled,
                phase.failed + mismatched +
                    refresh.mismatched_ticks);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : kSpecs) names.push_back(s.name);
  return names;
}

size_t CountBadAnswers(const std::vector<Sample>& samples,
                       const std::vector<std::string>& queries,
                       const RankingMap& reference, size_t* mismatches) {
  size_t bad = 0;
  size_t differ = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (!s.admitted || !s.answered || !s.response.ok || s.response.degraded) {
      ++bad;
      continue;
    }
    auto it = reference.find(queries[i]);
    if (it == reference.end() ||
        cluster::RankingHash(it->second) !=
            cluster::RankingHash(s.response.ranking)) {
      ++bad;
      ++differ;
    }
  }
  if (mismatches != nullptr) *mismatches = differ;
  return bad;
}

int RunWorkload(const RunOptions& o) {
  const WorkloadSpec* spec = FindSpec(o.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const std::string dir = o.workdir + "/" + spec->name + "-" +
                          std::to_string(o.seed) + "-" +
                          std::to_string(getpid());
  if (!MakeDirs(dir)) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 2;
  }
  PrintHeader(*spec, o);
  int rc = o.trace ? RunTraced(*spec, o, dir) : RunEndToEnd(*spec, o, dir);
  if (!o.trace) rmdir(dir.c_str());
  return rc;
}

}  // namespace perfbench
