// Offline construction of the serving store from the mining stack and
// the index — the "long-term query log" preprocessing step of Section
// 4.1, run once per log refresh.

#ifndef OPTSELECT_STORE_STORE_BUILDER_H_
#define OPTSELECT_STORE_STORE_BUILDER_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "corpus/document_store.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "recommend/ambiguity_detector.h"
#include "store/diversification_store.h"
#include "store/query_plan.h"
#include "store/store_snapshot.h"
#include "text/analyzer.h"

namespace optselect {
namespace store {

/// Builder options. Each specialization keeps
/// pipeline::kResultsPerSpecialization surrogates (|R_q′|), retrieved
/// conjunctively (every specialization term must match).
struct StoreBuilderOptions {
  /// Compile a serving QueryPlan (store v3) into every materialized
  /// entry. Off ⇒ entries serve via per-request computation.
  bool compile_plans = true;
  /// Plan-compile knobs; must match the serving node's pipeline params
  /// (num_candidates, threshold_c) or the node ignores the plans.
  PlanCompileOptions plan;
};

/// Deterministic query → shard ownership for the sharded serving
/// cluster (src/cluster): a normalized store key is *owned* by exactly
/// one of `num_shards` shards (FNV-1a hash of the key, mod N), and may
/// additionally be *replicated* onto every shard (the cluster's hot-set
/// load spreading). The same struct selects each shard's keys of the
/// shared mapping (StoreSnapshot::MappedShard) and filters each shard's
/// refreshes, so the two can never disagree about ownership.
struct ShardFilter {
  size_t num_shards = 1;
  size_t shard_index = 0;
  /// Normalized keys present on every shard regardless of owner.
  std::unordered_set<std::string> replicated;

  /// The shard owning `normalized_key` (stable across runs: FNV-1a).
  static size_t OwnerShard(std::string_view normalized_key,
                           size_t num_shards);

  /// True when this shard holds the key: it owns it or replicates it.
  bool Keeps(std::string_view normalized_key) const;
};

/// Runs Algorithm 1 on every query in `candidate_queries`, and for each
/// detected ambiguous query materializes the specializations with their
/// R_q′ surrogate vectors. Queries that are not ambiguous are skipped.
/// Works the queries on min(available CPUs, queries) threads and
/// stores the entries in input order, so `out` ends up byte-for-byte
/// what a sequential build gives. Returns the number of entries stored.
size_t BuildStore(const recommend::AmbiguityDetector& detector,
                  const index::Searcher& searcher,
                  const index::SnippetExtractor& snippets,
                  const text::Analyzer& analyzer,
                  const corpus::DocumentStore& documents,
                  const std::vector<std::string>& candidate_queries,
                  const StoreBuilderOptions& options,
                  DiversificationStore* out);

/// Incremental counterpart of BuildStore: re-mines only `dirty_queries`
/// (queries whose log statistics changed since `base` was built) and
/// returns the resulting delta instead of a full store. For each dirty
/// query: detected ambiguous ⇒ an upsert with freshly materialized
/// surrogates; not ambiguous but present in `base` ⇒ a removal. The
/// dirty set is first widened with every base entry that *references* a
/// dirty query as one of its specializations — their P(q′|q)
/// denominators changed too. Feed the result to store::BuildSnapshot.
/// Runs on the calling thread only: a refresh tick re-mines about one
/// entry, beside serving threads that already fill the cores.
StoreDelta MineDelta(const recommend::AmbiguityDetector& detector,
                     const index::Searcher& searcher,
                     const index::SnippetExtractor& snippets,
                     const text::Analyzer& analyzer,
                     const corpus::DocumentStore& documents,
                     const std::vector<std::string>& dirty_queries,
                     const StoreBuilderOptions& options,
                     const DiversificationStore& base);

/// Compiles the store-v3 selection blocks for one entry against the
/// serving retrieval stack: retrieves R_q at options.num_candidates,
/// extracts the candidate surrogates, computes the thresholded utility
/// matrix plus the λ-independent weighted sums, and records the
/// probability-sorted specialization order. Candidates come from the
/// serving fallback's pipeline::BuildCandidates and utility rows from
/// the streaming cold path's pipeline::ComputeUtilityRow, scoring the
/// entry's surrogates in place; those rows are bit-identical to
/// UtilityComputer::Compute's, so plan-served rankings are
/// bit-identical to computing per request. Returns an empty plan when
/// retrieval finds nothing (the node then falls back, cheaply).
QueryPlan CompileQueryPlan(const StoredEntry& entry,
                           const index::Searcher& searcher,
                           const index::SnippetExtractor& snippets,
                           const text::Analyzer& analyzer,
                           const corpus::DocumentStore& documents,
                           const PlanCompileOptions& options);

/// Compiles plans in place: one for every entry whose plan is missing
/// (a store built with plans off) or incompatible with `options`.
/// Entries that already carry a compatible plan are left untouched —
/// this is what makes a post-reload recompile touch only the dirty
/// queries. Compiles on min(available CPUs, stale entries) threads.
/// Returns the number of plans compiled.
size_t CompilePlans(DiversificationStore* store,
                    const index::Searcher& searcher,
                    const index::SnippetExtractor& snippets,
                    const text::Analyzer& analyzer,
                    const corpus::DocumentStore& documents,
                    const PlanCompileOptions& options);

}  // namespace store
}  // namespace optselect

#endif  // OPTSELECT_STORE_STORE_BUILDER_H_
