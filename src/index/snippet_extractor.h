// Document surrogates ("We extended Terrier in order to obtain short
// summaries of retrieved documents, which are used as document surrogates
// in our diversification algorithm", Section 5; the feasibility argument
// of Section 4.1 relies on surrogates being much smaller than documents).

#ifndef OPTSELECT_INDEX_SNIPPET_EXTRACTOR_H_
#define OPTSELECT_INDEX_SNIPPET_EXTRACTOR_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "corpus/document.h"
#include "index/inverted_index.h"
#include "text/analyzer.h"
#include "text/term_vector.h"

namespace optselect {
namespace index {

/// Produces query-biased snippets and their term vectors.
class SnippetExtractor {
 public:
  struct Options {
    /// Snippet window size in raw tokens.
    size_t window_tokens = 30;
  };

  /// The analyzer and the index are used read-only and must outlive
  /// the extractor. The index must be built over the documents the
  /// extractor will see, with this analyzer's vocabulary; the
  /// constructor reads its document frequencies into an idf table.
  /// Surrogate vectors are tf·idf-weighted — standard vector-space
  /// practice, without which the cosine of Equation (2) is dominated by
  /// the query terms that every retrieved snippet shares.
  SnippetExtractor(const text::Analyzer* analyzer,
                   const InvertedIndex* index, Options options);

  SnippetExtractor(const text::Analyzer* analyzer,
                   const InvertedIndex* index)
      : SnippetExtractor(analyzer, index, Options{}) {}

  /// Selects the fixed-size window of the body with the highest density
  /// of query terms (ties: earliest), prepends the title, and returns the
  /// snippet text.
  std::string Extract(const corpus::Document& doc,
                      const std::vector<text::TermId>& query_terms) const;

  /// The term vector of Extract's snippet (the surrogate representation
  /// consumed by the utility function), built from the term ids the
  /// index recorded for `doc.id` — the text is neither read nor
  /// tokenized. Equal in entries and norm bits to analyzing the snippet
  /// text, which tokenizes to exactly the title's tokens followed by the
  /// window's, each of which analyzes to its recorded id. Decodes into
  /// per-thread buffers and finds the distinct ids in ascending order
  /// without a comparison sort, from a per-thread presence bitmap and
  /// one-byte occurrence counts over the vocabulary (about 1.1 bytes
  /// per term per calling thread, all zero between calls), so the
  /// vector is built with one allocation; safe to call from any number
  /// of threads at once, with any number of extractors.
  text::TermVector ExtractVector(
      const corpus::Document& doc,
      const std::vector<text::TermId>& query_terms) const;

 private:
  /// [begin, end) of the snippet window over the body tokens whose term
  /// ids (kInvalidTermId for tokens analysis drops) are `body_ids`.
  /// Each token's query-hit flag is set without a branch on the token.
  std::pair<size_t, size_t> Window(
      const std::vector<text::TermId>& body_ids,
      const std::vector<text::TermId>& query_terms) const;

  const text::Analyzer* analyzer_;
  const InvertedIndex* index_;
  Options options_;
  std::vector<double> idf_;  // by TermId, over the index's terms
};

}  // namespace index
}  // namespace optselect

#endif  // OPTSELECT_INDEX_SNIPPET_EXTRACTOR_H_
