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

/// Selection memory for plans selected at admission: one per submitting
/// thread, shared by every node it submits to. A selection finishes
/// with it before the request's callback runs, so a callback that
/// submits again finds it free.
core::SelectScratch* AdmissionScratch() {
  thread_local core::SelectScratch scratch;
  return &scratch;
}

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void ServingNode::RegisterMetrics() {
  const obs::Labels& L = config_.metric_labels;
  // Effect-before-cause registration: Collect() and Stats() read the
  // handles in this order, and every request bumps them in the reverse
  // order (accepted — inside the queue lock for a queued request —
  // then batched_requests or admission_answers, then completed, then
  // the outcome counters), so a counter that only increments after
  // another has already incremented can never exceed it within one
  // snapshot — plan_served <= diversified <= completed <=
  // batched_requests + admission_answers <= accepted and batch_dedup
  // <= batched_requests hold in every snapshot, under any concurrency
  // (Counter pairs release increments with acquire reads, so this
  // holds on weakly ordered CPUs too).
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
  admission_answers_ =
      registry_->AddCounter("optselect_serving_admission_answers_total", L);
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

void ServingNode::MaybeStartTrace(QueuedRequest* request,
                                  const std::string& query) {
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
  trace->query = query;
  trace->start = request->enqueue_time;
  trace->events.push_back(
      obs::TraceEvent{obs::TraceStage::kAdmission, 0, 0, 0});
  request->trace = std::move(trace);
}

FaultDecision ServingNode::EvaluateFault(FaultSite site,
                                         std::string_view key) const {
  FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
  return injector == nullptr ? FaultDecision{} : injector->Evaluate(site, key);
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
  // Closed before the flag rises, so an admission that sees the flag
  // falls through to a queue that rejects it: once the flag is up, the
  // only requests still accepted are admission answers already past
  // the check, and the wait below covers them.
  queue_.Close();  // Workers drain the remaining requests, then exit.
  if (shutdown_.exchange(true)) {
    return;  // Another caller already shut the node down.
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Admission answers run on their submitting threads; wait for the
  // ones that passed the shutdown check before it was set.
  std::unique_lock<std::mutex> lock(admissions_mu_);
  admissions_drained_.wait(
      lock, [this] { return admissions_in_flight_.load() == 0; });
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
  req.enqueue_time = std::chrono::steady_clock::now();
  req.normalized = NormalizeQuery(request.query);
  req.cache_key = MakeCacheKey(req.normalized, params_fingerprint_);
  req.callback = std::move(callback);
  MaybeStartTrace(&req, request.query);
  if (AnswerAtAdmission(&req)) return true;
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

bool ServingNode::AnswerAtAdmission(QueuedRequest* request) {
  // Raised before the shutdown check (both sequentially consistent):
  // either Shutdown sees this admission in flight and waits for its
  // callback, or this admission sees the shutdown and falls through to
  // the queue Shutdown closed first, which rejects it.
  admissions_in_flight_.fetch_add(1);
  struct Leave {
    ServingNode* node;
    ~Leave() {
      if (node->admissions_in_flight_.fetch_sub(1) == 1 &&
          node->shutdown_.load()) {
        std::lock_guard<std::mutex> lock(node->admissions_mu_);
        node->admissions_drained_.notify_all();
      }
    }
  } leave{this};
  if (shutdown_.load()) return false;

  // The store-read fault site, asked once per request. A delay sends
  // the request to a worker, which sleeps it (Serve): the submitting
  // thread never sleeps, so a router can hedge around a slow shard and
  // a reactor keeps serving. A failure is answered below, before any
  // cache probe, as a worker would answer it.
  request->fault = EvaluateFault(FaultSite::kStoreRead, request->normalized);
  if (request->fault.delay.count() > 0) return false;

  // Cause before effect on every answer, as on the queued path:
  // accepted, then admission_answers, then completed and the outcome
  // counters (Finish).
  if (config_.enable_cache && !request->fault.fail) {
    const auto probe_start = std::chrono::steady_clock::now();
    // A miss is not counted here: the lookup that answers the request
    // counts it (LookupOrCompute's, below or on a worker), or a hit
    // when the key is filled meanwhile.
    std::shared_ptr<const Response> cached = cache_.Probe(request->cache_key);
    if (cached != nullptr) {
      // The stages a worker records for a cache hit, with no wait.
      obs::StageTimes stages;
      stages.queue_wait_us = 0;
      stages.cache_lookup_us = MicrosSince(probe_start);
      accepted_->Add();
      admission_answers_->Add();
      if (request->trace != nullptr) {
        const int64_t probe_at_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                probe_start - request->trace->start)
                .count();
        request->trace->events.push_back(
            obs::TraceEvent{obs::TraceStage::kQueueWait, 0, 0, 0});
        request->trace->events.push_back(
            obs::TraceEvent{obs::TraceStage::kCacheLookup, probe_at_us,
                            stages.cache_lookup_us, 0});
      }
      Response result = *cached;  // copy; per-request flag below
      result.cache_hit = true;
      Finish(request, stages, std::move(result));
      return true;
    }
  }
  // Only a compiled plan bounds the compute. Everything else needs
  // retrieval, whose milliseconds must never run on the submitting
  // thread (a reactor or a router): it is queued for the workers. A
  // failed request reads no store, so it pins no snapshot.
  std::shared_ptr<const store::StoreSnapshot> snapshot;
  store::EntryRef entry;  // found once here, handed down to the compute
  if (!request->fault.fail) {
    snapshot = this->snapshot();
    entry = snapshot->Find(request->normalized);
    if (!ServesFromPlan(entry)) return false;
  }
  accepted_->Add();
  admission_answers_->Add();
  Serve(request, /*queue_wait_us=*/0, /*batch=*/nullptr, snapshot, entry,
        AdmissionScratch());
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

Response ServingNode::ComputeRanking(
    const std::string& normalized_query,
    const store::StoreSnapshot& snapshot, store::EntryRef entry,
    core::SelectScratch* scratch, obs::StageTimes* stages,
    obs::Trace* trace) const {
  Response result;
  result.ok = true;
  result.store_version = snapshot.version();

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
  // Admission hands down the entry it already found.
  if (!entry) entry = snapshot.Find(normalized_query);

  // Compiled path (store v3+ plans): the builder already retrieved R_q
  // and computed the thresholded utilities against this same immutable
  // index, so the request is pure selection over the entry's flat
  // blocks — no retrieval, no snippet extraction, no cosine sums, and
  // no allocation outside the caller's scratch. On a mapped snapshot
  // the view points directly at file-backed columns.
  if (ServesFromPlan(entry)) {
    core::DiversificationView view = entry.PlanView();
    read_span.End();
    obs::TraceSpan select_span(trace, obs::TraceStage::kSelect, 0,
                               &stages->select_us);
    diversifier_.SelectInto(view, params.diversify, scratch,
                            &scratch->picks);

    result.diversified = true;
    result.plan_served = true;
    result.num_specializations = entry.PlanNumSpecializations();
    result.ranking = pipeline::AssembleRanking(
        entry.PlanDocs(), entry.PlanNumCandidates(), scratch->picks,
        params.diversify.k, &scratch->taken);
    return result;
  }

  const bool ambiguous =
      static_cast<bool>(entry) && entry.num_specializations() >= 2;
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
    result.ranking.reserve(k);
    for (size_t i = 0; i < k; ++i) result.ranking.push_back(rq[i].doc);
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
    result.diversified = true;
    result.streaming_served = true;
    result.num_specializations = m;
    result.ranking = pipeline::AssembleRanking(
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

  result.diversified = true;
  result.num_specializations = input.specializations.size();
  result.ranking =
      pipeline::AssembleRanking(input, scratch->picks, params.diversify.k);
  return result;
}

std::shared_ptr<const Response> ServingNode::LookupOrCompute(
    const std::string& cache_key, const std::string& normalized_query,
    const std::shared_ptr<const store::StoreSnapshot>& snapshot,
    const store::EntryRef& entry, core::SelectScratch* scratch,
    bool* cache_hit, obs::StageTimes* stages, obs::Trace* trace) {
  *cache_hit = false;
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
  auto computed = std::make_shared<const Response>(ComputeRanking(
      normalized_query, *snapshot, entry, scratch, stages, trace));
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

bool ServingNode::ServesFromPlan(const store::EntryRef& entry) const {
  return entry && entry.num_specializations() >= 2 &&
         entry.HasCompatiblePlan(config_.params.num_candidates,
                                 config_.params.threshold_c);
}

void ServingNode::Serve(
    QueuedRequest* request, int64_t queue_wait_us, Batch* batch,
    const std::shared_ptr<const store::StoreSnapshot>& snapshot,
    const store::EntryRef& entry, core::SelectScratch* scratch) {
  obs::StageTimes stages;
  stages.queue_wait_us = queue_wait_us;
  obs::Trace* trace = request->trace.get();
  if (trace != nullptr) {
    trace->events.push_back(
        obs::TraceEvent{obs::TraceStage::kQueueWait, 0, queue_wait_us, 0});
    if (batch != nullptr) {
      trace->events.push_back(obs::TraceEvent{
          obs::TraceStage::kBatch, queue_wait_us, 0, batch->size});
    }
  }
  // Store-read fault, decided at admission: only a worker has a delay
  // to sleep, and the failure comes after it, so "slow then dead"
  // composes. Applied per request, before batch dedup, so a transient
  // burst fails exactly the requests it was scripted to fail.
  if (request->fault.delay.count() > 0) {
    std::this_thread::sleep_for(request->fault.delay);
  }
  if (request->fault.fail) {
    Finish(request, stages, Response{});  // ok == false
    return;
  }

  // An answer the cache or the batch map holds too is copied out of
  // `shared`; one this request alone holds is moved.
  std::shared_ptr<const Response> shared;
  Response result;
  bool cache_hit = false;
  bool dedup = false;
  if (batch != nullptr) {
    auto it = batch->computed.find(request->cache_key);
    if (it != batch->computed.end()) {
      shared = it->second;
      dedup = true;
      batch_dedup_hits_->Add();
    }
  }
  if (!dedup) {
    const bool batch_shares = batch != nullptr && batch->size > 1;
    if (config_.enable_cache) {
      shared = LookupOrCompute(request->cache_key, request->normalized,
                               snapshot, entry, scratch, &cache_hit, &stages,
                               trace);
    } else {
      result = ComputeRanking(request->normalized, *snapshot, entry, scratch,
                              &stages, trace);
      if (batch_shares) {
        shared = std::make_shared<const Response>(std::move(result));
      }
    }
    if (batch_shares) batch->computed.emplace(request->cache_key, shared);
  }
  if (shared != nullptr) result = *shared;  // per-request flags below
  result.cache_hit = cache_hit;
  result.batch_dedup = dedup;
  Finish(request, stages, std::move(result));
}

void ServingNode::Finish(QueuedRequest* request, const obs::StageTimes& stages,
                         Response result) {
  // Stage histograms record every request that ran the stage, not just
  // sampled ones — sampling only gates trace storage.
  const std::pair<StageIndex, int64_t> ran[] = {
      {kStageQueueWait, stages.queue_wait_us},
      {kStageCacheLookup, stages.cache_lookup_us},
      {kStageStoreRead, stages.store_read_us},
      {kStageSelect, stages.select_us},
      {kStageScan, stages.scan_us},
      {kStageMaintain, stages.maintain_us}};
  const int64_t total_us = MicrosSince(request->enqueue_time);
  for (const auto& [stage, us] : ran) {
    if (us >= 0) stage_hist_[stage]->Record(us);
  }
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
  // The trace takes the outcome first: the callback is handed the
  // result itself, not a copy.
  obs::Trace* trace = request->trace.get();
  if (trace != nullptr) {
    trace->ok = result.ok;
    trace->diversified = result.diversified;
    trace->cache_hit = result.cache_hit;
    trace->plan_served = result.plan_served;
    trace->streaming_served = result.streaming_served;
    trace->total_us = total_us;
    trace->ranking_hash = util::Fnv1a64(
        result.ranking.data(), result.ranking.size() * sizeof(DocId));
  }
  // The reply span covers the completion callback; it is excluded from
  // total_us on both sides of the stage-sum identity (queue_wait +
  // cache_lookup + store_read + select ≈ total).
  int64_t reply_us = -1;
  {
    obs::TraceSpan reply_span(trace, obs::TraceStage::kReply, 0, &reply_us);
    if (request->callback) request->callback(std::move(result));
  }
  if (reply_us >= 0) stage_hist_[kStageReply]->Record(reply_us);
  if (trace != nullptr) {
    obs::Tracer* tracer = tracer_.load(std::memory_order_acquire);
    if (tracer != nullptr) tracer->Commit(std::move(*trace));
  }
}

void ServingNode::WorkerLoop() {
  std::vector<QueuedRequest> batch;
  // Per-worker selection scratch: the heap stream, bitmaps and gather
  // buffers are reused across every request this worker ever computes
  // (plan-served or streamed cold), so selection performs no
  // per-request allocation.
  core::SelectScratch scratch;
  Batch drained;
  while (queue_.PopBatch(&batch, config_.max_batch) > 0) {
    batches_->Add();
    batched_requests_->Add(batch.size());
    drained.size = batch.size();
    drained.computed.clear();
    // Pin the active snapshot once per batch: every request drained in
    // this wakeup answers on one consistent store version, and the
    // shared_ptr keeps that version alive across a concurrent reload.
    std::shared_ptr<const store::StoreSnapshot> snapshot = this->snapshot();
    const auto drain_time = std::chrono::steady_clock::now();
    for (QueuedRequest& req : batch) {
      const int64_t queue_wait_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              drain_time - req.enqueue_time)
              .count();
      Serve(&req, queue_wait_us, &drained, snapshot, store::EntryRef(),
            &scratch);
    }
  }
}

ServingStats ServingNode::Stats() const {
  ServingStats s;
  // The thin-view snapshot: reads go through the registry handles in
  // registration (effect-before-cause) order — each effect before its
  // cause — so plan_served <= diversified <= completed <= accepted and
  // batch_dedup_hits <= batched_requests, batched_requests +
  // admission_answers <= accepted hold in every snapshot even while
  // requests are mutating the counters.
  s.plan_served = plan_served_->value();
  s.streaming_served = streaming_served_->value();
  s.diversified = diversified_->value();
  s.passthrough = passthrough_->value();
  s.faulted = faulted_->value();
  s.completed = completed_->value();
  s.batch_dedup_hits = batch_dedup_hits_->value();
  s.batched_requests = batched_requests_->value();
  s.admission_answers = admission_answers_->value();
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
