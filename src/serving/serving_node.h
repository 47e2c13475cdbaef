// Query-serving node — the production architecture of Section 4.1.
//
// The paper's efficiency argument is that OptSelect is cheap enough to
// run *inside* the query pipeline of a serving node that keeps only the
// precomputed DiversificationStore in memory (no query log, no
// recommender). A ServingNode is that node: it owns the serving-time
// flow
//
//     request ─> admission, on the submitting thread: normalize + cache
//       │        key (built once, carried through the queue)
//       │  ─> injected store-read fault ─(fail)─> answer ok == false
//       │  ─> result-cache probe ─(hit)─> answer
//       │  ─(miss)─> store lookup ─(compiled plan for this node's params,
//       │        store v3+)─> selection directly over the entry's
//       │        precomputed utility blocks (per-thread SelectScratch) ─>
//       │        answer ─> cache fill
//       │  (no queue push, no worker wake-up; needs the node not shut
//       │   down)
//       └─(needs retrieval: plan-less entry or passthrough, or an
//         injected store-read delay)─> bounded MPMC queue ─> worker pool
//       worker: sleeps the delay ─> sharded LRU result cache (a key
//               filled while the request waited still hits here)
//               ─(miss)─> store lookup
//                 ├─ compiled plan (a delayed request): the same
//                 │  selection (per-worker SelectScratch) ─> ranking
//                 └─ fallback: retrieve R_q ─> utilities ─> OptSelect
//               ─> ranking ─> cache fill
//
// with a fixed-size thread pool, optional micro-batching (each worker
// wakeup drains up to max_batch queued requests and computes duplicate
// queries once), and a ServingStats snapshot (QPS, latency quantiles
// from a streaming histogram, cache and traffic counters). The plan
// path and the fallback produce bit-identical rankings (the builder
// compiles plans by running the fallback's exact code against the same
// immutable retrieval stack); plans whose compile parameters disagree
// with this node's pipeline params are ignored, never half-used.
//
// The store is held as a refcounted immutable StoreSnapshot and can be
// hot-swapped mid-traffic with ReloadStore: admission pins the current
// snapshot per plan selection and workers per batch, so in-flight
// requests finish on the version they started with while new ones see
// the new version, and the result cache is invalidated only for the
// keys whose stored entries actually changed — unchanged queries keep
// serving bit-identical cached rankings across the swap.
//
// The ranking computed here is bit-identical to
// DiversificationPipeline::Run for the same inputs whenever the store
// entry matches what the live mining stack would produce — the store
// *is* the serialized output of that stack (store_builder) — except that
// specializations come from the store rather than a live detector, which
// is exactly the serving/offline split the paper describes.

#ifndef OPTSELECT_SERVING_SERVING_NODE_H_
#define OPTSELECT_SERVING_SERVING_NODE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/parallel_optselect.h"
#include "core/select_view.h"
#include "core/streaming_select.h"
#include "corpus/document_store.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "serving/fault_injector.h"
#include "serving/frontend.h"
#include "serving/latency_histogram.h"
#include "serving/request_queue.h"
#include "serving/result_cache.h"
#include "store/store_snapshot.h"
#include "text/analyzer.h"
#include "util/types.h"

namespace optselect {
namespace serving {

/// Node configuration.
struct ServingConfig {
  /// Worker threads in the pool (0 ⇒ util::AvailableCpus()).
  size_t num_workers = 0;
  /// Bounded request queue capacity; Submit sheds load beyond this.
  size_t queue_capacity = 1024;
  /// Max requests drained per worker wakeup; 1 disables micro-batching.
  size_t max_batch = 8;
  /// Result cache switch + sizing.
  bool enable_cache = true;
  ResultCacheOptions cache;
  /// Serve plan-less ambiguous queries (the cold path) through the
  /// streaming selector: candidates are consumed lazily off the
  /// retrieval result and the upper bound (1−λ)·m·P(d|q) + λ·ΣP(q′|q)
  /// prunes snippet extraction + cosine sums for candidates that can no
  /// longer enter the top k. Rankings are bit-identical to the
  /// materialize-then-select fallback (asserted by serving_test and
  /// bench_streaming_select); the flag is therefore not part of the
  /// cache key. Off selects materialize-then-select, the reference the
  /// open-loop benchmark's cold workload checks its answers against.
  bool streaming_cold_path = true;
  /// Retrieval / diversification parameters (shared by every request).
  pipeline::PipelineParams params;
  /// Metrics registry the node registers its counters, gauges, and
  /// latency histograms into. Non-owned and must outlive the node; null
  /// (the default) makes the node create a private registry, reachable
  /// via metrics() — single-node tools and tests keep working unchanged
  /// while a ShardedCluster passes one shared registry to every shard.
  obs::MetricsRegistry* registry = nullptr;
  /// Labels stamped on every metric this node registers (the cluster
  /// sets {{"shard", "<i>"}}); empty for a standalone node.
  obs::Labels metric_labels;
};

/// Point-in-time stats snapshot.
struct ServingStats {
  /// Requests admitted: queued for the workers or answered at admission
  /// (accepted == batched_requests + admission_answers once idle).
  uint64_t accepted = 0;
  uint64_t rejected = 0;     ///< Submit calls shed (queue full / shutdown)
  uint64_t completed = 0;    ///< requests answered (callback invoked)
  uint64_t diversified = 0;  ///< answered via store + OptSelect
  uint64_t plan_served = 0;  ///< of those, served off compiled v3 plans
  uint64_t streaming_served = 0;  ///< of those, via the streaming cold path
  uint64_t passthrough = 0;  ///< answered with the plain DPH ranking
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;  ///< per-key erases from reloads
  uint64_t reloads = 0;              ///< snapshot swaps since start
  uint64_t faulted = 0;          ///< answers failed by injected faults
  uint64_t reload_failures = 0;  ///< ReloadStore calls refused by faults
  uint64_t store_version = 0;        ///< active snapshot's version
  uint64_t batches = 0;          ///< worker wakeups that did work
  /// Requests that went through the queue and a worker batch: every
  /// accepted request but the admission answers.
  uint64_t batched_requests = 0;
  uint64_t batch_dedup_hits = 0; ///< duplicates computed once in a batch
  /// Requests answered at admission on the submitting thread, never
  /// queued: cache hits (each also one of cache_hits) and selections
  /// over a compiled plan.
  uint64_t admission_answers = 0;
  double cache_hit_rate = 0.0;
  double mean_batch = 0.0;
  double uptime_seconds = 0.0;
  double qps = 0.0;          ///< completed / uptime
  double mean_ms = 0.0;      ///< request latency (queue wait included)
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  size_t queue_depth = 0;
  size_t cache_entries = 0;
};

/// Multithreaded serving front end over an immutable store snapshot.
class ServingNode : public Frontend {
 public:
  /// Wires the node from serving-time components over an explicit
  /// snapshot — the deployment shape of Section 4.1 is
  /// StoreSnapshot::FromMapped over the serving store's v4 mapping
  /// (ReloadStore later swaps in the heap snapshots store::BuildSnapshot
  /// gives). All pointers are non-owned and must outlive the node;
  /// every component is used read-only (the retrieval stack is
  /// immutable after build, the analyzer through AnalyzeReadOnly),
  /// which is what makes the worker pool safe. Workers start
  /// immediately.
  ServingNode(std::shared_ptr<const store::StoreSnapshot> snapshot,
              const index::Searcher* searcher,
              const index::SnippetExtractor* snippets,
              const text::Analyzer* analyzer,
              const corpus::DocumentStore* documents,
              ServingConfig config);

  /// Convenience wiring from a fully built testbed plus a snapshot.
  ServingNode(std::shared_ptr<const store::StoreSnapshot> snapshot,
              const pipeline::Testbed* testbed, ServingConfig config);

  ServingNode(const ServingNode&) = delete;
  ServingNode& operator=(const ServingNode&) = delete;

  /// Drains and joins (Shutdown).
  ~ServingNode() override;

  /// Frontend: synchronous request — answers at admission a cached
  /// query or one whose stored entry has a compiled plan for this
  /// node's params, otherwise enqueues (blocking while the queue is
  /// full) and waits for the worker pool to answer. Returns ok=false
  /// when the node is shut down or an injected fault fails the request.
  Response Submit(const Request& request) override;

  /// Frontend: asynchronous request. `callback` fires exactly once:
  /// on the calling thread before this returns when the answer needs
  /// no retrieval — the query's ranking is cached, its stored entry has
  /// a compiled plan for this node's params (selected right there, a
  /// few µs), or an injected fault fails its store read — otherwise on
  /// a worker thread after a non-blocking enqueue. Returns false — and
  /// never invokes the callback — when the queue is full or the node is
  /// shut down (load shedding; counted in stats().rejected).
  bool SubmitAsync(Request request,
                   std::function<void(Response)> callback) override;

  /// Stops admission, drains every queued request (their callbacks still
  /// fire), joins the workers, and waits for the admission answers
  /// still running on submitting threads. Idempotent; called by the
  /// destructor.
  void Shutdown();

  /// Outcome of one ReloadStore call.
  struct ReloadOutcome {
    /// False when an injected kReload fault refused the swap: the node
    /// keeps serving its current snapshot, nothing was invalidated.
    bool ok = true;
    uint64_t old_version = 0;
    uint64_t new_version = 0;
    /// Cache entries actually erased (≤ changed_keys.size()).
    size_t invalidated = 0;
  };

  /// Atomically swaps the active store snapshot mid-traffic. In-flight
  /// batches and admission selections finish on the snapshot they
  /// pinned; those started after the swap see the new one.
  /// `changed_keys` (normalized store keys, e.g.
  /// SnapshotBuildResult::changed_keys) drives per-key result cache
  /// invalidation — every other cached ranking survives the swap
  /// untouched. Safe to call from any thread, concurrently with
  /// traffic. `snapshot` must be non-null.
  ReloadOutcome ReloadStore(
      std::shared_ptr<const store::StoreSnapshot> snapshot,
      const std::vector<std::string>& changed_keys);

  /// Installs (or, with nullptr, clears) a fault injector consulted at
  /// the admission, store-read, and reload boundaries. Each request's
  /// store-read decision is made once, at admission: a failure is
  /// answered there, and a delay queues the request for a worker to
  /// sleep, so no submitting thread stalls. Not owned; must outlive the
  /// node or be cleared first.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Installs (or clears) a tracer: each accepted request gets a
  /// sequence number and, when sampled, carries an obs::Trace through
  /// its flow (answered at admission or by a worker), committed on
  /// completion. Not owned; must outlive the node or be cleared first.
  void set_tracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  /// Snapshot of the counters and latency quantiles. Reads go through
  /// the registry handles in registration (effect-before-cause) order,
  /// so derived invariants like completed <= accepted and diversified
  /// <= completed hold in every snapshot.
  ServingStats Stats() const;

  /// The registry this node records into (the config's, or the private
  /// one created when none was supplied).
  const obs::MetricsRegistry& metrics() const { return *registry_; }

  /// The node's request-latency histogram (queue wait included). Used
  /// by the cluster tier to merge per-shard distributions into exact
  /// cluster-level quantiles instead of averaging per-shard quantiles.
  const LatencyHistogram& latency_histogram() const { return *latency_; }

  const ServingConfig& config() const { return config_; }

  /// The active snapshot (refcounted — safe to hold across reloads).
  std::shared_ptr<const store::StoreSnapshot> snapshot() const;

 private:
  /// One queue item (distinct from serving::Request, the public API
  /// struct — this carries the completion plumbing through the queue).
  struct QueuedRequest {
    /// NormalizeQuery of the request's query and its cache key, built
    /// once at admission and reused by the worker.
    std::string normalized;
    std::string cache_key;
    std::function<void(Response)> callback;
    std::chrono::steady_clock::time_point enqueue_time;
    /// Sampled requests carry their trace through the queue; null for
    /// the unsampled rest.
    std::unique_ptr<obs::Trace> trace;
    /// The store-read fault decided at admission; a worker applies it
    /// without asking the injector again.
    FaultDecision fault;
  };

  /// Indices into stage_hist_ (per-stage latency histograms).
  enum StageIndex : size_t {
    kStageQueueWait = 0,
    kStageCacheLookup,
    kStageStoreRead,
    kStageSelect,
    kStageReply,
    kStageScan,
    kStageMaintain,
    kNumStages,
  };

  /// One worker wakeup's requests: their count (traced) and the
  /// payloads already computed among them, keyed like the cache —
  /// duplicate queries drained in one wakeup are computed once even
  /// with the cache disabled (micro-batching's amortization).
  struct Batch {
    size_t size = 0;
    std::unordered_map<std::string, std::shared_ptr<const Response>>
        computed;
  };

  void WorkerLoop();
  /// The shared admission path of Submit (`block`: wait for queue
  /// space) and SubmitAsync (shed when full). False ⇒ rejected (fault,
  /// full, or shut down) and `callback` never fires.
  bool Enqueue(Request request, std::function<void(Response)> callback,
               bool block);
  /// Enqueue's fast path: answers `request` on the calling thread when
  /// its store-read fault fails it, its ranking is cached or its stored
  /// entry has a compiled plan for this node's params (selected through
  /// Serve with the thread's own SelectScratch). False ⇒ not answered
  /// (shut down, a store-read delay, or the answer needs retrieval):
  /// the request is queued.
  bool AnswerAtAdmission(QueuedRequest* request);
  /// The per-request body the workers and admission share: queue-wait
  /// trace event, the store-read fault the request carries, the ranking
  /// (a duplicate in `batch` — null at admission — or the computed
  /// answer over `snapshot`, null for a failed request) and Finish.
  /// `entry` is the request's store entry when admission already found
  /// it, else null (the compute finds it). The answer is copied only
  /// when the cache or the batch map holds it too; else it is moved.
  void Serve(QueuedRequest* request, int64_t queue_wait_us, Batch* batch,
             const std::shared_ptr<const store::StoreSnapshot>& snapshot,
             const store::EntryRef& entry, core::SelectScratch* scratch);
  /// True when `entry` is ambiguous and carries a plan compiled for
  /// this node's params: answering it is selection over the plan's
  /// blocks, with no retrieval.
  bool ServesFromPlan(const store::EntryRef& entry) const;
  /// Registers every counter/gauge/histogram into registry_ (ctor).
  void RegisterMetrics();
  /// Samples the just-accepted request: assigns a sequence number and
  /// attaches a Trace of `query` when the installed tracer selects it.
  void MaybeStartTrace(QueuedRequest* request, const std::string& query);
  /// Consults the installed fault injector; a no-decision default when
  /// none is installed (one acquire load and a null check).
  FaultDecision EvaluateFault(FaultSite site, std::string_view key) const;
  /// Compute for one normalized query against a pinned snapshot.
  /// `scratch` is the calling thread's reusable selection memory; the
  /// plan path and the streaming cold path both select inside its
  /// StreamingTopK (no per-request selection allocation beyond the
  /// result object itself). `stages` collects store-read / select wall
  /// time; `trace` (nullable) collects span events. `entry` is the
  /// query's entry in `snapshot` when the caller already found it; a
  /// null one is looked up here.
  Response ComputeRanking(const std::string& normalized_query,
                          const store::StoreSnapshot& snapshot,
                          store::EntryRef entry,
                          core::SelectScratch* scratch,
                          obs::StageTimes* stages, obs::Trace* trace) const;
  /// The cached flow, called only with the cache on: cache lookup,
  /// compute, cache fill. The fill is skipped when the active snapshot
  /// moved past `snapshot` mid-compute, so a stale ranking can never
  /// repopulate a key that a concurrent ReloadStore just invalidated.
  std::shared_ptr<const Response> LookupOrCompute(
      const std::string& cache_key, const std::string& normalized_query,
      const std::shared_ptr<const store::StoreSnapshot>& snapshot,
      const store::EntryRef& entry, core::SelectScratch* scratch,
      bool* cache_hit, obs::StageTimes* stages, obs::Trace* trace);
  /// Records the request's stage times and latency, counts its
  /// outcome, hands `result` to its callback and commits its trace.
  void Finish(QueuedRequest* request, const obs::StageTimes& stages,
              Response result);

  ServingConfig config_;
  /// Private registry when the config supplied none. Declared before
  /// every member that registers into it, so it outlives their
  /// callbacks on destruction.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const store::StoreSnapshot> snapshot_;
  const index::Searcher* searcher_;
  const index::SnippetExtractor* snippets_;
  const text::Analyzer* analyzer_;
  const corpus::DocumentStore* documents_;
  core::ParallelOptSelectDiversifier diversifier_;
  uint64_t params_fingerprint_;

  BoundedRequestQueue<QueuedRequest> queue_;
  ShardedLruCache<Response> cache_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
  /// Admissions inside AnswerAtAdmission. Raised before the shutdown
  /// check, so Shutdown either waits for an admission answer or that
  /// admission sees the shutdown; the last one out signals
  /// admissions_drained_ once shutdown_ is set.
  std::atomic<size_t> admissions_in_flight_{0};
  std::mutex admissions_mu_;
  std::condition_variable admissions_drained_;
  std::chrono::steady_clock::time_point start_time_;

  // Registry handles (owned by *registry_; registered effect-before-
  // cause — see RegisterMetrics for the order and the invariants it
  // buys).
  obs::Counter* plan_served_ = nullptr;
  obs::Counter* streaming_served_ = nullptr;
  obs::Counter* diversified_ = nullptr;
  obs::Counter* passthrough_ = nullptr;
  obs::Counter* faulted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* batch_dedup_hits_ = nullptr;
  obs::Counter* batched_requests_ = nullptr;
  obs::Counter* admission_answers_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* reloads_ = nullptr;
  obs::Counter* reload_failures_ = nullptr;
  LatencyHistogram* latency_ = nullptr;
  LatencyHistogram* stage_hist_[kNumStages] = {nullptr};

  std::atomic<FaultInjector*> fault_injector_{nullptr};
  std::atomic<obs::Tracer*> tracer_{nullptr};
  /// Request sequence numbers for deterministic sampling; assigned per
  /// admission attempt while a tracer is installed.
  std::atomic<uint64_t> trace_seq_{0};
};

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_SERVING_NODE_H_
