#include "pipeline/diversification_pipeline.h"

#include <algorithm>

namespace optselect {
namespace pipeline {

std::vector<DocId> AssembleRanking(const DocId* docs, size_t n,
                                   const std::vector<size_t>& picks,
                                   size_t k,
                                   std::vector<char>* taken_scratch) {
  std::vector<DocId> ranking;
  ranking.reserve(std::min(k, n));
  std::vector<char> local;
  std::vector<char>& taken = taken_scratch != nullptr ? *taken_scratch : local;
  taken.assign(n, 0);
  for (size_t i : picks) {
    ranking.push_back(docs[i]);
    taken[i] = 1;
  }
  for (size_t i = 0; i < n && ranking.size() < k; ++i) {
    if (!taken[i]) ranking.push_back(docs[i]);
  }
  return ranking;
}

std::vector<DocId> AssembleRanking(const core::DiversificationInput& input,
                                   const std::vector<size_t>& picks,
                                   size_t k) {
  std::vector<DocId> ranking;
  ranking.reserve(std::min(k, input.candidates.size()));
  std::vector<char> taken(input.candidates.size(), 0);
  for (size_t i : picks) {
    ranking.push_back(input.candidates[i].doc);
    taken[i] = 1;
  }
  for (size_t i = 0; i < input.candidates.size() && ranking.size() < k;
       ++i) {
    if (!taken[i]) ranking.push_back(input.candidates[i].doc);
  }
  return ranking;
}

std::vector<core::Candidate> BuildCandidates(
    const index::ResultList& rq, const index::SnippetExtractor& snippets,
    const corpus::DocumentStore& documents,
    const std::vector<text::TermId>& query_terms) {
  std::vector<core::Candidate> candidates;
  if (rq.empty()) return candidates;
  double max_score = rq.front().score;
  for (const index::SearchResult& hit : rq) {
    max_score = std::max(max_score, hit.score);
  }
  candidates.reserve(rq.size());
  for (const index::SearchResult& hit : rq) {
    core::Candidate c;
    c.doc = hit.doc;
    c.relevance = max_score > 0 ? hit.score / max_score : 0.0;
    c.vector = snippets.ExtractVector(documents.Get(hit.doc), query_terms);
    candidates.push_back(std::move(c));
  }
  return candidates;
}

std::vector<DocId> DiversificationPipeline::BaselineRanking(
    std::string_view query, size_t k) const {
  std::vector<DocId> out;
  for (const index::SearchResult& r : searcher_->Search(query, k)) {
    out.push_back(r.doc);
  }
  return out;
}

DiversifiedResult DiversificationPipeline::Prepare(
    std::string_view query) const {
  DiversifiedResult result;
  result.input.query = std::string(query);

  // Step (b1): R_q.
  std::vector<text::TermId> query_terms = analyzer_->AnalyzeReadOnly(query);
  index::ResultList rq =
      searcher_->SearchTerms(query_terms, params_.num_candidates);
  if (rq.empty()) return result;

  result.input.candidates =
      BuildCandidates(rq, *snippets_, *store_, query_terms);

  // Step (a): Algorithm 1.
  result.specializations = detector_->Detect(query);
  if (!result.specializations.ambiguous()) return result;

  // Step (b2): R_q′ for each mined specialization.
  for (const recommend::Specialization& sp : result.specializations.items) {
    core::SpecializationProfile profile;
    profile.query = sp.query;
    profile.probability = sp.probability;
    std::vector<text::TermId> sp_terms = analyzer_->AnalyzeReadOnly(sp.query);
    // Conjunctive retrieval keeps R_q′ "highly relevant for each
    // specialization" (Section 4.1) — disjunctive matching would pad the
    // list with root-only documents once a specialization's cluster is
    // smaller than |R_q′|.
    index::ResultList rqp = searcher_->SearchTermsConjunctive(
        sp_terms, kResultsPerSpecialization);
    profile.results.reserve(rqp.size());
    for (const index::SearchResult& hit : rqp) {
      profile.results.push_back(
          snippets_->ExtractVector(store_->Get(hit.doc), sp_terms));
    }
    result.input.specializations.push_back(std::move(profile));
  }

  // Utility matrix (shared by every algorithm).
  core::UtilityComputer computer(
      core::UtilityComputer::Options{params_.threshold_c});
  result.utilities = computer.Compute(result.input);
  return result;
}

DiversifiedResult DiversificationPipeline::Run(
    std::string_view query, const core::Diversifier& algorithm) const {
  DiversifiedResult result = Prepare(query);

  if (result.input.candidates.empty()) return result;

  if (!result.specializations.ambiguous()) {
    // Not ambiguous: the plain ranking stands (paper step (a)).
    for (const core::Candidate& c : result.input.candidates) {
      result.ranking.push_back(c.doc);
    }
    if (result.ranking.size() > params_.diversify.k) {
      result.ranking.resize(params_.diversify.k);
    }
    return result;
  }

  std::vector<size_t> picks =
      algorithm.Select(result.input, result.utilities, params_.diversify);
  result.diversified = true;
  // Paper evaluates full rankings (k = 1000 on |R_q| = 25k): pad the tail
  // with the remaining candidates in original rank order so metrics at
  // deep cutoffs are well-defined.
  result.ranking = AssembleRanking(result.input, picks, params_.diversify.k);
  return result;
}

}  // namespace pipeline
}  // namespace optselect
