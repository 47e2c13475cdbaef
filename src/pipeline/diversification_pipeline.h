// Query-time diversification flow (paper Section 3, steps (a)–(c)):
//   (a) check whether q is ambiguous/faceted (Algorithm 1),
//   (b) retrieve R_q and, for each mined specialization q′, the small
//       highly-relevant set R_q′ (|R_q′| ≪ |R_q|, Section 4.1),
//   (c) re-rank R_q so the final k results maximize user satisfaction.

#ifndef OPTSELECT_PIPELINE_DIVERSIFICATION_PIPELINE_H_
#define OPTSELECT_PIPELINE_DIVERSIFICATION_PIPELINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/candidate.h"
#include "core/diversifier.h"
#include "core/utility.h"
#include "pipeline/testbed.h"

namespace optselect {
namespace pipeline {

/// |R_q′|: reference results retrieved per specialization (paper
/// Section 5: 20). One constant for the offline store build and the
/// live pipeline, so stored surrogates and live ones always agree.
inline constexpr size_t kResultsPerSpecialization = 20;

/// Pipeline parameters (paper Section 5 defaults).
struct PipelineParams {
  /// |R_q|: candidates retrieved for the ambiguous query.
  size_t num_candidates = 200;
  /// Utility threshold c.
  double threshold_c = 0.0;
  /// Selection size and λ.
  core::DiversifyParams diversify;
};

/// Output of one diversified query.
struct DiversifiedResult {
  /// True when Algorithm 1 declared the query ambiguous and
  /// diversification ran; false ⇒ `ranking` is the plain DPH ranking.
  bool diversified = false;
  /// Final document ranking (ids into the document store).
  std::vector<DocId> ranking;
  /// The mined specialization set used (empty when !diversified).
  recommend::SpecializationSet specializations;
  /// The problem instance (kept for inspection; candidates in R_q order).
  core::DiversificationInput input;
  /// Ũ(d|R_q′) matrix.
  core::UtilityMatrix utilities;
};

/// Builds the output SERP from a selection: the picked candidates in
/// pick order, padded with the remaining candidates in original rank
/// order up to `k` (deep metric cutoffs need full-length rankings).
std::vector<DocId> AssembleRanking(const core::DiversificationInput& input,
                                   const std::vector<size_t>& picks,
                                   size_t k);

/// Same pick-then-pad rule over a flat doc-id block (a compiled
/// QueryPlan's candidate list). `taken_scratch`, when given, supplies
/// the marking buffer so hot-path callers stay allocation-free; both
/// overloads produce identical rankings for identical candidates.
std::vector<DocId> AssembleRanking(const DocId* docs, size_t n,
                                   const std::vector<size_t>& picks,
                                   size_t k,
                                   std::vector<char>* taken_scratch);

/// Materializes the candidate block R_q from a retrieval result:
/// normalized relevance P(d|q) (score / max score) plus the snippet
/// surrogate vectors. The single definition shared by the offline
/// pipeline, the store-time plan compiler, and the serving fallback —
/// which is what makes their candidates (and therefore their rankings)
/// bit-identical by construction rather than by manual sync.
std::vector<core::Candidate> BuildCandidates(
    const index::ResultList& rq, const index::SnippetExtractor& snippets,
    const corpus::DocumentStore& documents,
    const std::vector<text::TermId>& query_terms);

/// Runs retrieval + mining + diversification. The components are not
/// owned and must outlive the pipeline; any custom wiring (e.g. a
/// detector trained on a log split) can be passed directly.
class DiversificationPipeline {
 public:
  DiversificationPipeline(const index::Searcher* searcher,
                          const index::SnippetExtractor* snippets,
                          const text::Analyzer* analyzer,
                          const corpus::DocumentStore* store,
                          const recommend::AmbiguityDetector* detector,
                          PipelineParams params)
      : searcher_(searcher),
        snippets_(snippets),
        analyzer_(analyzer),
        store_(store),
        detector_(detector),
        params_(params) {}

  /// Convenience wiring from a fully built testbed.
  DiversificationPipeline(const Testbed* testbed, PipelineParams params)
      : DiversificationPipeline(&testbed->searcher(), &testbed->snippets(),
                                &testbed->analyzer(),
                                &testbed->corpus().store,
                                &testbed->detector(), params) {}

  /// Builds the problem instance for `query` (steps (a) and (b)).
  /// If the query is not ambiguous the instance has no specializations.
  DiversifiedResult Prepare(std::string_view query) const;

  /// Full run: Prepare + Select with the given algorithm (step (c)).
  DiversifiedResult Run(std::string_view query,
                        const core::Diversifier& algorithm) const;

  /// Plain DPH baseline ranking (no diversification).
  std::vector<DocId> BaselineRanking(std::string_view query,
                                     size_t k) const;

  const PipelineParams& params() const { return params_; }

 private:
  const index::Searcher* searcher_;
  const index::SnippetExtractor* snippets_;
  const text::Analyzer* analyzer_;
  const corpus::DocumentStore* store_;
  const recommend::AmbiguityDetector* detector_;
  PipelineParams params_;
};

}  // namespace pipeline
}  // namespace optselect

#endif  // OPTSELECT_PIPELINE_DIVERSIFICATION_PIPELINE_H_
