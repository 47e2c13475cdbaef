#include "serving/serving_node.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/utility.h"
#include "pipeline/candidate_stream.h"
#include "serving/cache_key.h"
#include "util/cpus.h"
#include "util/hash.h"

namespace optselect {
namespace serving {
namespace {

size_t ResolveWorkers(size_t requested) {
  return requested > 0 ? requested : util::AvailableCpus();
}

obs::Labels WithStage(obs::Labels labels, const char* stage) {
  labels.emplace_back("stage", stage);
  return labels;
}

}  // namespace

void ServingNode::RegisterMetrics() {
  const obs::Labels& L = config_.metric_labels;
  // Effect-before-cause registration: Collect() and Stats() read the
  // handles in this order, and every request bumps them in the reverse
  // order (admission inside the queue lock, then batch, then completed,
  // then the outcome counters), so a counter that only increments after
  // another has already incremented can never exceed it within one
  // snapshot — plan_served <= diversified <= completed <= accepted and
  // batch_dedup <= batched_requests <= accepted hold in every snapshot,
  // under any concurrency (Counter pairs release increments with
  // acquire reads, so this holds on weakly ordered CPUs too).
  plan_served_ =
      registry_->AddCounter("optselect_serving_plan_served_total", L);
  streaming_served_ =
      registry_->AddCounter("optselect_serving_streaming_served_total", L);
  diversified_ =
      registry_->AddCounter("optselect_serving_diversified_total", L);
  passthrough_ =
      registry_->AddCounter("optselect_serving_passthrough_total", L);
  faulted_ = registry_->AddCounter("optselect_serving_faulted_total", L);
  completed_ = registry_->AddCounter("optselect_serving_completed_total", L);
  batch_dedup_hits_ =
      registry_->AddCounter("optselect_serving_batch_dedup_total", L);
  batched_requests_ =
      registry_->AddCounter("optselect_serving_batched_requests_total", L);
  batches_ = registry_->AddCounter("optselect_serving_batches_total", L);
  accepted_ = registry_->AddCounter("optselect_serving_accepted_total", L);
  rejected_ = registry_->AddCounter("optselect_serving_rejected_total", L);
  reloads_ = registry_->AddCounter("optselect_serving_reloads_total", L);
  reload_failures_ =
      registry_->AddCounter("optselect_serving_reload_failures_total", L);

  // The cache keeps its own atomics (it predates the registry and is
  // shared code); exported through foreign-read counters.
  registry_->AddCounterFn("optselect_cache_hits_total", L,
                          [this] { return cache_.stats().hits; });
  registry_->AddCounterFn("optselect_cache_misses_total", L,
                          [this] { return cache_.stats().misses; });
  registry_->AddCounterFn("optselect_cache_evictions_total", L,
                          [this] { return cache_.stats().evictions; });
  registry_->AddCounterFn("optselect_cache_insertions_total", L,
                          [this] { return cache_.stats().insertions; });
  registry_->AddCounterFn("optselect_cache_invalidations_total", L,
                          [this] { return cache_.stats().invalidations; });

  registry_->AddGaugeFn("optselect_queue_depth", L, [this] {
    return static_cast<double>(queue_.size());
  });
  registry_->AddGaugeFn("optselect_cache_entries", L, [this] {
    return static_cast<double>(cache_.size());
  });
  registry_->AddGaugeFn("optselect_store_version", L, [this] {
    return static_cast<double>(snapshot()->version());
  });
  registry_->AddGaugeFn("optselect_uptime_seconds", L, [this] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time_)
        .count();
  });

  latency_ = registry_->AddHistogram("optselect_request_latency_seconds", L);
  // Stage histograms record EVERY request, not just sampled ones:
  // stage quantiles must describe all traffic so their p50s can be
  // checked against the end-to-end p50.
  static const char* kStageNames[kNumStages] = {
      "queue_wait", "cache_lookup", "store_read", "select", "reply",
      "scan",       "maintain"};
  for (size_t i = 0; i < kNumStages; ++i) {
    stage_hist_[i] = registry_->AddHistogram(
        "optselect_stage_latency_seconds", WithStage(L, kStageNames[i]));
  }
}

void ServingNode::MaybeStartTrace(QueuedRequest* request) {
  obs::Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer == nullptr) return;
  // The sequence number is consumed per admission attempt while a
  // tracer is installed, so under a sequential driver (ReplaySequential
  // — the chaos harness) seq equals the request index and the sampled
  // set is identical across runs.
  uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  if (!tracer->ShouldSample(seq)) return;
  auto trace = std::make_unique<obs::Trace>();
  trace->seq = seq;
  trace->query = request->query;
  trace->start = request->enqueue_time;
  trace->events.push_back(
      obs::TraceEvent{obs::TraceStage::kAdmission, 0, 0, 0});
  request->trace = std::move(trace);
}

FaultDecision ServingNode::EvaluateFault(FaultSite site,
                                         std::string_view key) const {
  FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
  if (injector == nullptr) return FaultDecision{};
  FaultDecision decision = injector->Evaluate(site, key);
  if (decision.delay.count() > 0) {
    std::this_thread::sleep_for(decision.delay);
  }
  return decision;
}

ServingNode::ServingNode(
    std::shared_ptr<const store::StoreSnapshot> snapshot,
    const index::Searcher* searcher,
    const index::SnippetExtractor* snippets,
    const text::Analyzer* analyzer,
    const corpus::DocumentStore* documents, ServingConfig config)
    : config_(config),
      owned_registry_(config.registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(config.registry != nullptr ? config.registry
                                           : owned_registry_.get()),
      snapshot_(std::move(snapshot)),
      searcher_(searcher),
      snippets_(snippets),
      analyzer_(analyzer),
      documents_(documents),
      diversifier_(1),
      params_fingerprint_(ParamsFingerprint(config.params)),
      queue_(config.queue_capacity),
      cache_(config.cache),
      start_time_(std::chrono::steady_clock::now()) {
  RegisterMetrics();
  size_t n = ResolveWorkers(config_.num_workers);
  config_.num_workers = n;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingNode::ServingNode(
    std::shared_ptr<const store::StoreSnapshot> snapshot,
    const pipeline::Testbed* testbed, ServingConfig config)
    : ServingNode(std::move(snapshot), &testbed->searcher(),
                  &testbed->snippets(), &testbed->analyzer(),
                  &testbed->corpus().store, config) {}

ServingNode::~ServingNode() { Shutdown(); }

std::shared_ptr<const store::StoreSnapshot> ServingNode::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

ServingNode::ReloadOutcome ServingNode::ReloadStore(
    std::shared_ptr<const store::StoreSnapshot> snapshot,
    const std::vector<std::string>& changed_keys) {
  ReloadOutcome outcome;
  outcome.new_version = snapshot->version();
  // Lifecycle fault: the swap is refused and the node keeps serving its
  // current snapshot — the refresher counts the error and retries on
  // its next tick, exactly like a failed disk read would play out.
  if (EvaluateFault(FaultSite::kReload, {}).fail) {
    reload_failures_->Add();
    outcome.ok = false;
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    outcome.old_version = snapshot_->version();
    return outcome;
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    outcome.old_version = snapshot_->version();
    snapshot_ = std::move(snapshot);
  }
  // Invalidation runs after the swap: a request that recomputes one of
  // these keys between the swap and its erase already sees the new
  // snapshot, and the fill guard in LookupOrCompute keeps any compute
  // still pinned to the old snapshot from repopulating the key.
  for (const std::string& key : changed_keys) {
    if (cache_.Erase(MakeCacheKey(key, params_fingerprint_))) {
      ++outcome.invalidated;
    }
  }
  reloads_->Add();
  return outcome;
}

void ServingNode::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    return;  // Another caller already shut the node down.
  }
  queue_.Close();  // Workers drain the remaining requests, then exit.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ServingNode::Enqueue(Request request,
                          std::function<void(Response)> callback,
                          bool block) {
  // Admission fault: a dead shard rejects before any work happens, the
  // same shape a crashed process presents to its clients.
  if (EvaluateFault(FaultSite::kQueueSubmit, request.query).fail) {
    rejected_->Add();
    return false;
  }
  QueuedRequest req;
  req.query = std::move(request.query);
  req.callback = std::move(callback);
  req.enqueue_time = std::chrono::steady_clock::now();
  MaybeStartTrace(&req);
  // Counted inside the queue's critical section: no worker can pop,
  // batch, or complete the request before its admission is counted.
  auto admit = [this] { accepted_->Add(); };
  if (!(block ? queue_.Push(std::move(req), admit)
              : queue_.TryPush(std::move(req), admit))) {
    rejected_->Add();
    return false;
  }
  return true;
}

bool ServingNode::SubmitAsync(Request request,
                              std::function<void(Response)> callback) {
  return Enqueue(std::move(request), std::move(callback), /*block=*/false);
}

Response ServingNode::Submit(const Request& request) {
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Response result;
  };
  auto state = std::make_shared<SyncState>();
  // Blocking push: synchronous callers apply backpressure instead of
  // shedding. Fails (ok == false) only on an admission fault or when
  // the node is shut down.
  bool admitted = Enqueue(
      request,
      [state](Response r) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->result = std::move(r);
        state->done = true;
        state->cv.notify_one();
      },
      /*block=*/true);
  if (!admitted) return Response{};

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] { return state->done; });
  return std::move(state->result);
}

std::shared_ptr<const Response> ServingNode::ComputeRanking(
    const std::string& normalized_query,
    const store::StoreSnapshot& snapshot, core::SelectScratch* scratch,
    obs::StageTimes* stages, obs::Trace* trace) const {
  auto result = std::make_shared<Response>();
  result->ok = true;
  result->store_version = snapshot.version();

  // Store-read span: everything needed to pose the selection problem —
  // the store lookup, and on the fallback paths the live retrieval
  // (analyze + search + candidates + utilities). The select span is
  // OptSelect proper (SelectInto + ranking assembly).
  obs::TraceSpan read_span(trace, obs::TraceStage::kStoreRead, 0,
                           &stages->store_read_us);

  const pipeline::PipelineParams& params = config_.params;
  // Serving-time step (a): the store *is* the precomputed answer of
  // Algorithm 1, so ambiguity detection is one hash lookup. Find()
  // resolves against either backing — heap entries or spans straight
  // into the mmapped v4 columns — without materializing anything.
  store::EntryRef entry = snapshot.Find(normalized_query);
  const bool ambiguous =
      static_cast<bool>(entry) && entry.num_specializations() >= 2;

  // Compiled path (store v3+ plans): the builder already retrieved R_q
  // and computed the thresholded utilities against this same immutable
  // index, so the request is pure selection over the entry's flat
  // blocks — no retrieval, no snippet extraction, no cosine sums, and
  // no allocation outside the worker's scratch. On a mapped snapshot
  // the view points directly at file-backed columns.
  if (ambiguous &&
      entry.HasCompatiblePlan(params.num_candidates, params.threshold_c)) {
    core::DiversificationView view = entry.PlanView();
    read_span.End();
    obs::TraceSpan select_span(trace, obs::TraceStage::kSelect, 0,
                               &stages->select_us);
    diversifier_.SelectInto(view, params.diversify, scratch,
                            &scratch->picks);

    result->diversified = true;
    result->plan_served = true;
    result->num_specializations = entry.PlanNumSpecializations();
    result->ranking = pipeline::AssembleRanking(
        entry.PlanDocs(), entry.PlanNumCandidates(), scratch->picks,
        params.diversify.k, &scratch->taken);
    return result;
  }

  std::vector<text::TermId> query_terms =
      analyzer_->AnalyzeReadOnly(normalized_query);
  index::ResultList rq =
      searcher_->SearchTerms(query_terms, params.num_candidates);
  if (rq.empty()) return result;

  if (!ambiguous) {
    // Passthrough: the plain DPH ranking stands. No surrogate
    // extraction needed — a real node only pays for snippets on the
    // diversified path.
    read_span.End();
    obs::TraceSpan select_span(trace, obs::TraceStage::kSelect, 0,
                               &stages->select_us);
    size_t k = std::min(params.diversify.k, rq.size());
    result->ranking.reserve(k);
    for (size_t i = 0; i < k; ++i) result->ranking.push_back(rq[i].doc);
    return result;
  }

  // Streaming cold path (plan-less ambiguous entry): consume R_q
  // lazily, maintaining the diversified top-k in bounded heap state as
  // candidates arrive. The utility upper bound lets the scan skip
  // snippet extraction and the O(m·|R_q′|) cosine sums for candidates
  // that can no longer displace anything — the ranking is bit-identical
  // to the materialized fallback below either way. The select span
  // splits into scan (stream consumption + pushes) and maintain
  // (finalize + ranking assembly) sub-spans; select still covers both.
  if (config_.streaming_cold_path) {
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
    read_span.End();
    obs::TraceSpan select_span(trace, obs::TraceStage::kSelect, 0,
                               &stages->select_us);
    pipeline::CandidateStream candidates(&rq, snippets_, documents_,
                                         &query_terms);
    std::vector<double> row(m);
    core::StreamingTopK* stream = &scratch->stream;
    {
      obs::TraceSpan scan_span(trace, obs::TraceStage::kScan, 0,
                               &stages->scan_us);
      stream->Begin(probs.data(), m, params.diversify.k,
                    params.diversify.lambda);
      while (!candidates.Done()) {
        if (stream->CanPrune(candidates.relevance())) {
          stream->Skip();
          candidates.Advance();
          continue;
        }
        pipeline::ComputeUtilityRow(candidates.Materialize(), refs,
                                    inv_harmonic, params.threshold_c,
                                    row.data());
        stream->Push(candidates.position(), candidates.relevance(),
                     row.data());
        candidates.Advance();
      }
      scan_span.set_detail(candidates.materialized());
    }
    obs::TraceSpan maintain_span(trace, obs::TraceStage::kMaintain, 0,
                                 &stages->maintain_us);
    stream->Finalize(params.diversify.k, &scratch->picks);
    std::vector<DocId> docs;
    docs.reserve(rq.size());
    for (const index::SearchResult& hit : rq) docs.push_back(hit.doc);
    result->diversified = true;
    result->streaming_served = true;
    result->num_specializations = m;
    result->ranking = pipeline::AssembleRanking(
        docs.data(), docs.size(), scratch->picks, params.diversify.k,
        &scratch->taken);
    return result;
  }

  // Materialize-then-select (streaming_cold_path off), steps (b) + (c):
  // build the problem instance from R_q and the stored S_q / R_q′
  // surrogates, then run OptSelect through the same view + scratch
  // machinery the plan path uses.
  core::DiversificationInput input;
  input.query = normalized_query;
  input.candidates =
      pipeline::BuildCandidates(rq, *snippets_, *documents_, query_terms);
  input.specializations = entry.ToProfiles();

  core::UtilityComputer computer(
      core::UtilityComputer::Options{params.threshold_c});
  core::UtilityMatrix utilities = computer.Compute(input);
  core::DiversificationView view =
      core::MakeView(input, utilities, scratch);
  read_span.End();
  obs::TraceSpan select_span(trace, obs::TraceStage::kSelect, 0,
                             &stages->select_us);
  diversifier_.SelectInto(view, params.diversify, scratch,
                          &scratch->picks);

  result->diversified = true;
  result->num_specializations = input.specializations.size();
  result->ranking =
      pipeline::AssembleRanking(input, scratch->picks, params.diversify.k);
  return result;
}

std::shared_ptr<const Response> ServingNode::LookupOrCompute(
    const std::string& cache_key, const std::string& normalized_query,
    const std::shared_ptr<const store::StoreSnapshot>& snapshot,
    core::SelectScratch* scratch, bool* cache_hit, obs::StageTimes* stages,
    obs::Trace* trace) {
  *cache_hit = false;
  if (!config_.enable_cache) {
    return ComputeRanking(normalized_query, *snapshot, scratch, stages,
                          trace);
  }
  std::shared_ptr<const Response> cached;
  {
    obs::TraceSpan span(trace, obs::TraceStage::kCacheLookup, 0,
                        &stages->cache_lookup_us);
    cached = cache_.Get(cache_key);
  }
  if (cached) {
    *cache_hit = true;
    return cached;
  }
  auto computed =
      ComputeRanking(normalized_query, *snapshot, scratch, stages, trace);
  // Fill guard: if a reload swapped the snapshot while we computed,
  // this result may belong to a key the reload just invalidated — drop
  // the fill (the request itself still answers on its pinned version).
  // The Put happens under snapshot_mu_ so a swap cannot slip between
  // the check and the fill; lock order (snapshot_mu_ → cache shard) is
  // never taken in reverse.
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot_ == snapshot) cache_.Put(cache_key, computed);
  }
  return computed;
}

void ServingNode::Finish(QueuedRequest* request, const Response& result) {
  auto now = std::chrono::steady_clock::now();
  int64_t total_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          now - request->enqueue_time)
          .count();
  latency_->Record(total_us);
  // Cause before effect: completed first, then the outcome counters
  // that can never exceed it (Stats() reads them in the reverse order).
  completed_->Add();
  if (!result.ok) {
    // Injected store-read failure: answered, but with no ranking — the
    // failover tier treats it as a shard error. Neither diversified nor
    // passthrough.
    faulted_->Add();
  } else if (result.diversified) {
    diversified_->Add();
    if (result.plan_served) {
      plan_served_->Add();
    }
    if (result.streaming_served) {
      streaming_served_->Add();
    }
  } else {
    passthrough_->Add();
  }
  // The reply span covers the completion callback; it is excluded from
  // total_us on both sides of the stage-sum identity (queue_wait +
  // cache_lookup + store_read + select ≈ total).
  int64_t reply_us = -1;
  {
    obs::TraceSpan reply_span(request->trace.get(),
                              obs::TraceStage::kReply, 0, &reply_us);
    if (request->callback) request->callback(result);
  }
  if (reply_us >= 0) stage_hist_[kStageReply]->Record(reply_us);
  if (request->trace != nullptr) {
    obs::Trace& t = *request->trace;
    t.ok = result.ok;
    t.diversified = result.diversified;
    t.cache_hit = result.cache_hit;
    t.plan_served = result.plan_served;
    t.streaming_served = result.streaming_served;
    t.total_us = total_us;
    t.ranking_hash = util::Fnv1a64(result.ranking.data(),
                                   result.ranking.size() * sizeof(DocId));
    obs::Tracer* tracer = tracer_.load(std::memory_order_acquire);
    if (tracer != nullptr) tracer->Commit(std::move(t));
  }
}

void ServingNode::WorkerLoop() {
  std::vector<QueuedRequest> batch;
  // Per-worker selection scratch: the heap stream, bitmaps and gather
  // buffers are reused across every request this worker ever computes
  // (plan-served or streamed cold), so selection performs no
  // per-request allocation.
  core::SelectScratch scratch;
  // Payloads already computed in this batch, keyed like the cache:
  // duplicate queries drained in one wakeup are computed exactly once
  // even with the cache disabled (micro-batching's amortization).
  std::unordered_map<std::string, std::shared_ptr<const Response>>
      batch_local;
  while (queue_.PopBatch(&batch, config_.max_batch) > 0) {
    batches_->Add();
    batched_requests_->Add(batch.size());
    batch_local.clear();
    // Pin the active snapshot once per batch: every request drained in
    // this wakeup answers on one consistent store version, and the
    // shared_ptr keeps that version alive across a concurrent reload.
    std::shared_ptr<const store::StoreSnapshot> snapshot = this->snapshot();
    const auto drain_time = std::chrono::steady_clock::now();
    for (QueuedRequest& req : batch) {
      obs::StageTimes stages;
      stages.queue_wait_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              drain_time - req.enqueue_time)
              .count();
      stage_hist_[kStageQueueWait]->Record(stages.queue_wait_us);
      if (req.trace != nullptr) {
        req.trace->events.push_back(obs::TraceEvent{
            obs::TraceStage::kQueueWait, 0, stages.queue_wait_us, 0});
        req.trace->events.push_back(
            obs::TraceEvent{obs::TraceStage::kBatch, stages.queue_wait_us,
                            0, batch.size()});
      }
      std::string normalized = NormalizeQuery(req.query);
      // Store-read fault: the worker fails (or stalls — the delay is
      // applied inside EvaluateFault) while answering. Evaluated per
      // request, before batch dedup, so a transient burst fails exactly
      // the requests it was scripted to fail.
      if (EvaluateFault(FaultSite::kStoreRead, normalized).fail) {
        Finish(&req, Response{});  // ok == false
        continue;
      }
      std::string key = MakeCacheKey(normalized, params_fingerprint_);

      std::shared_ptr<const Response> payload;
      bool cache_hit = false;
      bool dedup = false;
      auto it = batch_local.find(key);
      if (it != batch_local.end()) {
        payload = it->second;
        dedup = true;
        batch_dedup_hits_->Add();
      } else {
        payload = LookupOrCompute(key, normalized, snapshot, &scratch,
                                  &cache_hit, &stages, req.trace.get());
        if (batch.size() > 1) batch_local.emplace(key, payload);
      }

      // Stage histograms record every request that ran the stage, not
      // just sampled ones — sampling only gates trace storage.
      if (stages.cache_lookup_us >= 0) {
        stage_hist_[kStageCacheLookup]->Record(stages.cache_lookup_us);
      }
      if (stages.store_read_us >= 0) {
        stage_hist_[kStageStoreRead]->Record(stages.store_read_us);
      }
      if (stages.select_us >= 0) {
        stage_hist_[kStageSelect]->Record(stages.select_us);
      }
      if (stages.scan_us >= 0) {
        stage_hist_[kStageScan]->Record(stages.scan_us);
      }
      if (stages.maintain_us >= 0) {
        stage_hist_[kStageMaintain]->Record(stages.maintain_us);
      }

      Response result = *payload;  // copy; per-request flags below
      result.cache_hit = cache_hit;
      result.batch_dedup = dedup;
      Finish(&req, result);
    }
  }
}

ServingStats ServingNode::Stats() const {
  ServingStats s;
  // The thin-view snapshot: reads go through the registry handles in
  // registration (effect-before-cause) order — each effect before its
  // cause — so plan_served <= diversified <= completed <= accepted and
  // batch_dedup_hits <= batched_requests <= accepted hold in every
  // snapshot even while workers are mutating the counters.
  s.plan_served = plan_served_->value();
  s.streaming_served = streaming_served_->value();
  s.diversified = diversified_->value();
  s.passthrough = passthrough_->value();
  s.faulted = faulted_->value();
  s.completed = completed_->value();
  s.batch_dedup_hits = batch_dedup_hits_->value();
  s.batched_requests = batched_requests_->value();
  s.batches = batches_->value();
  s.accepted = accepted_->value();
  s.rejected = rejected_->value();
  ResultCacheStats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_evictions = cs.evictions;
  s.cache_invalidations = cs.invalidations;
  s.cache_hit_rate = cs.HitRate();
  s.reloads = reloads_->value();
  s.reload_failures = reload_failures_->value();
  s.store_version = snapshot()->version();
  s.mean_batch =
      s.batches == 0
          ? 0.0
          : static_cast<double>(s.batched_requests) / s.batches;
  s.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  s.qps = s.uptime_seconds > 0
              ? static_cast<double>(s.completed) / s.uptime_seconds
              : 0.0;
  s.mean_ms = latency_->MeanMicros() / 1000.0;
  s.p50_ms = latency_->PercentileMicros(0.50) / 1000.0;
  s.p95_ms = latency_->PercentileMicros(0.95) / 1000.0;
  s.p99_ms = latency_->PercentileMicros(0.99) / 1000.0;
  s.queue_depth = queue_.size();
  s.cache_entries = cache_.size();
  return s;
}

}  // namespace serving
}  // namespace optselect
