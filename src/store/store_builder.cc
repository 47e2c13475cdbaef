#include "store/store_builder.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "core/kernels/kernels.h"
#include "core/select_view.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/diversification_pipeline.h"
#include "util/cpus.h"
#include "util/hash.h"
#include "util/strings.h"

namespace optselect {
namespace store {

size_t ShardFilter::OwnerShard(std::string_view normalized_key,
                               size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(
      util::Fnv1a64(normalized_key.data(), normalized_key.size()) %
      num_shards);
}

bool ShardFilter::Keeps(std::string_view normalized_key) const {
  if (OwnerShard(normalized_key, num_shards) == shard_index) return true;
  return replicated.count(std::string(normalized_key)) > 0;
}

DiversificationStore SplitStore(const DiversificationStore& store,
                                const ShardFilter& filter) {
  DiversificationStore shard;
  for (const auto& [key, entry] : store.entries()) {
    if (!filter.Keeps(key)) continue;
    // Put re-validates the copied entry (ambiguity + plan invariants),
    // so a shard store can never hold state a full store could not.
    shard.Put(entry).IgnoreError();
  }
  shard.set_version(store.version());
  return shard;
}

namespace {

/// Runs work(i) once for every i in [0, count), on min(available
/// CPUs, count) threads counting the caller, each taking the next
/// index as it finishes one. `work` must be safe to run concurrently
/// for distinct i. An exception from any thread reaches the caller
/// once every thread has stopped (a std::async future waits in its
/// destructor).
template <typename Work>
void ParallelFor(size_t count, const Work& work) {
  const size_t threads = std::min(util::AvailableCpus(), count);
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next++; i < count; i = next++) work(i);
  };
  std::vector<std::future<void>> helpers;
  for (size_t t = 1; t < threads; ++t) {
    helpers.push_back(std::async(std::launch::async, drain));
  }
  drain();
  for (std::future<void>& helper : helpers) helper.get();
}

/// Materializes the stored entry for one detected ambiguous query:
/// specializations with P(q′|q) plus their R_q′ surrogate vectors.
StoredEntry MaterializeEntry(const recommend::SpecializationSet& set,
                             const std::string& query,
                             const index::Searcher& searcher,
                             const index::SnippetExtractor& snippets,
                             const text::Analyzer& analyzer,
                             const corpus::DocumentStore& documents,
                             const StoreBuilderOptions& options) {
  StoredEntry entry;
  entry.query = query;
  for (const recommend::Specialization& sp : set.items) {
    StoredSpecialization stored_sp;
    stored_sp.query = sp.query;
    stored_sp.probability = sp.probability;
    std::vector<text::TermId> terms = analyzer.AnalyzeReadOnly(sp.query);
    index::ResultList results = searcher.SearchTermsConjunctive(
        terms, options.results_per_specialization);
    stored_sp.surrogates.reserve(results.size());
    for (const index::SearchResult& hit : results) {
      stored_sp.surrogates.push_back(
          snippets.ExtractVector(documents.Get(hit.doc), terms));
    }
    entry.specializations.push_back(std::move(stored_sp));
  }
  if (options.compile_plans) {
    entry.plan = CompileQueryPlan(entry, searcher, snippets, analyzer,
                                  documents, options.plan);
  }
  return entry;
}

}  // namespace

QueryPlan CompileQueryPlan(const StoredEntry& entry,
                           const index::Searcher& searcher,
                           const index::SnippetExtractor& snippets,
                           const text::Analyzer& analyzer,
                           const corpus::DocumentStore& documents,
                           const PlanCompileOptions& options) {
  QueryPlan plan;
  plan.num_candidates_requested =
      static_cast<uint32_t>(options.num_candidates);
  plan.threshold_c = options.threshold_c;

  // Same normalized query, same retrieval and same candidate
  // materialization (pipeline::BuildCandidates) as the serving
  // fallback; the rows come from the streaming path's
  // ComputeUtilityRow, bit-identical to UtilityComputer::Compute — so
  // the compiled blocks are what a request would compute.
  std::vector<text::TermId> query_terms =
      analyzer.AnalyzeReadOnly(util::NormalizeQueryText(entry.query));
  index::ResultList rq =
      searcher.SearchTerms(query_terms, options.num_candidates);
  if (rq.empty()) return plan;  // empty plan ⇒ serve-time fallback

  std::vector<core::Candidate> candidates =
      pipeline::BuildCandidates(rq, snippets, documents, query_terms);
  const size_t n = candidates.size();
  const size_t m = entry.specializations.size();
  // The entry's own surrogates, scored in place.
  std::vector<pipeline::SpecializationRef> refs(m);
  plan.probability.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    refs[j].probability = entry.specializations[j].probability;
    refs[j].results = &entry.specializations[j].surrogates;
    plan.probability.push_back(refs[j].probability);
  }
  const std::vector<double> inv_harmonic = pipeline::InverseHarmonics(refs);

  plan.docs.reserve(n);
  plan.relevance.reserve(n);
  plan.utilities.resize(n * m);
  plan.weighted.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    plan.docs.push_back(candidates[i].doc);
    plan.relevance.push_back(candidates[i].relevance);
    double* row = plan.utilities.data() + i * m;
    pipeline::ComputeUtilityRow(candidates[i].vector, refs, inv_harmonic,
                                options.threshold_c, row);
    // The λ-independent half of Eq. 9, by the kernels' canonical
    // blocked accumulation — the order the serve-time row scan uses —
    // so the compiled sums match serve-time bitwise.
    plan.weighted.push_back(
        core::kernels::WeightedRowSum(row, plan.probability.data(), m));
  }
  // "the k specializations with the largest probabilities" (3.1.3) —
  // the full order is compiled; selection truncates to its k.
  plan.spec_order.resize(m);
  for (size_t j = 0; j < m; ++j) {
    plan.spec_order[j] = static_cast<uint32_t>(j);
  }
  core::SortSpecOrderByProbability(plan.probability.data(),
                                   &plan.spec_order);
  return plan;
}

size_t CompilePlans(DiversificationStore* store,
                    const index::Searcher& searcher,
                    const index::SnippetExtractor& snippets,
                    const text::Analyzer& analyzer,
                    const corpus::DocumentStore& documents,
                    const PlanCompileOptions& options) {
  // Collect, compile in parallel, then Put in collection order — Put
  // mutates the map being iterated. Entries with a compatible plan are
  // skipped — the incremental property the reload path relies on.
  std::vector<StoredEntry> stale;
  for (const auto& [key, entry] : store->entries()) {
    if (!entry.plan.empty() &&
        entry.plan.CompatibleWith(options.num_candidates,
                                  options.threshold_c)) {
      continue;
    }
    stale.push_back(entry);
  }
  ParallelFor(stale.size(), [&](size_t i) {
    stale[i].plan = CompileQueryPlan(stale[i], searcher, snippets, analyzer,
                                     documents, options);
  });
  size_t compiled = 0;
  for (StoredEntry& entry : stale) {
    if (entry.plan.empty()) continue;  // retrieval found nothing
    store->Put(std::move(entry)).IgnoreError();
    ++compiled;
  }
  return compiled;
}

size_t BuildStore(const recommend::AmbiguityDetector& detector,
                  const index::Searcher& searcher,
                  const index::SnippetExtractor& snippets,
                  const text::Analyzer& analyzer,
                  const corpus::DocumentStore& documents,
                  const std::vector<std::string>& candidate_queries,
                  const StoreBuilderOptions& options,
                  DiversificationStore* out) {
  // Each query's work reads only the immutable mining and retrieval
  // stacks, so queries run in parallel; Put then takes the entries in
  // input order, which leaves the store a sequential build would.
  std::vector<std::optional<StoredEntry>> built(candidate_queries.size());
  ParallelFor(candidate_queries.size(), [&](size_t i) {
    const std::string& query = candidate_queries[i];
    recommend::SpecializationSet set = detector.Detect(query);
    if (!set.ambiguous()) return;
    built[i] = MaterializeEntry(set, query, searcher, snippets, analyzer,
                                documents, options);
  });
  size_t stored = 0;
  for (std::optional<StoredEntry>& entry : built) {
    if (entry && out->Put(std::move(*entry)).ok()) ++stored;
  }
  return stored;
}

StoreDelta MineDelta(const recommend::AmbiguityDetector& detector,
                     const index::Searcher& searcher,
                     const index::SnippetExtractor& snippets,
                     const text::Analyzer& analyzer,
                     const corpus::DocumentStore& documents,
                     const std::vector<std::string>& dirty_queries,
                     const StoreBuilderOptions& options,
                     const DiversificationStore& base) {
  // Widen the dirty set: a stored entry whose *specialization* got new
  // traffic has a changed P(q′|q) distribution even if its root query
  // never reappeared in the tail.
  std::set<std::string> dirty_keys;
  for (const std::string& q : dirty_queries) {
    dirty_keys.insert(util::NormalizeQueryText(q));
  }
  std::set<std::string> to_mine(dirty_queries.begin(), dirty_queries.end());
  for (const auto& [key, entry] : base.entries()) {
    if (to_mine.count(entry.query) > 0) continue;
    for (const StoredSpecialization& sp : entry.specializations) {
      if (dirty_keys.count(util::NormalizeQueryText(sp.query)) > 0) {
        to_mine.insert(entry.query);
        break;
      }
    }
  }

  StoreDelta delta;
  for (const std::string& query : to_mine) {
    recommend::SpecializationSet set = detector.Detect(query);
    if (set.ambiguous()) {
      delta.upserts.push_back(MaterializeEntry(
          set, query, searcher, snippets, analyzer, documents, options));
    } else if (base.Find(query) != nullptr) {
      delta.removals.push_back(query);
    }
  }
  return delta;
}

}  // namespace store
}  // namespace optselect
