// Top-k retrieval over the inverted index: document-at-a-time, a merge
// of the query terms' doc-ascending posting lists with one cursor per
// distinct term, so no per-document accumulator is built.

#ifndef OPTSELECT_INDEX_SEARCHER_H_
#define OPTSELECT_INDEX_SEARCHER_H_

#include <string_view>
#include <vector>

#include "index/dph_scorer.h"
#include "index/inverted_index.h"
#include "text/analyzer.h"
#include "util/types.h"

namespace optselect {
namespace index {

/// One ranked hit.
struct SearchResult {
  DocId doc = kInvalidDocId;
  double score = 0.0;
};

/// An ordered result list R_q.
using ResultList = std::vector<SearchResult>;

/// Executes analyzed queries against an index with DPH weighting.
class Searcher {
 public:
  /// Neither pointer is owned; both must outlive the searcher. The
  /// analyzer is used read-only (no vocabulary growth at query time).
  Searcher(const InvertedIndex* idx, const text::Analyzer* analyzer)
      : index_(idx), analyzer_(analyzer), scorer_(idx) {}

  /// Returns the top-k documents for the raw query text, best first.
  /// Ties break on ascending doc id for determinism.
  ResultList Search(std::string_view query, size_t k) const;

  /// Like Search, over pre-analyzed term ids. A term's DPH weight is
  /// its in-query tf, and a document's score adds its terms'
  /// contributions in ascending term order; documents scoring 0 are
  /// left out. Safe to call from any number of threads at once.
  ResultList SearchTerms(const std::vector<text::TermId>& terms,
                         size_t k) const;

  /// Conjunctive (AND) retrieval: only documents containing *every*
  /// distinct query term are scored. Web engines answer multi-term
  /// queries conjunctively; the diversification pipeline uses this for
  /// the R_q′ reference lists, which must contain documents genuinely
  /// about the specialization rather than root-only matches.
  ResultList SearchTermsConjunctive(const std::vector<text::TermId>& terms,
                                    size_t k) const;

 private:
  const InvertedIndex* index_;
  const text::Analyzer* analyzer_;
  DphScorer scorer_;
};

}  // namespace index
}  // namespace optselect

#endif  // OPTSELECT_INDEX_SEARCHER_H_
