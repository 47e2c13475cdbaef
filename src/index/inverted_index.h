// Inverted index over a DocumentStore (the Terrier stand-in).
//
// Term-at-a-time layout: one posting list (doc, tf) per term, plus the
// collection statistics DFR weighting models need (document lengths,
// average length, document and collection frequencies).
//
// Beside it sits a direct index (document → terms, as Terrier keeps
// one): every document's analysis, recorded once at build time, so
// snippet surrogates decode term ids instead of re-tokenizing the body.
// A record is one LEB128 varint stream: the title's kept-id count, the
// title's kept ids, then one value per raw body token. Each id is
// stored as id + 1, and a body value of 0 marks a token analysis
// dropped (stopword, empty stem). Dropped tokens stay because the
// snippet window counts raw tokens.

#ifndef OPTSELECT_INDEX_INVERTED_INDEX_H_
#define OPTSELECT_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <vector>

#include "corpus/document_store.h"
#include "text/analyzer.h"
#include "util/types.h"

namespace optselect {
namespace index {

/// One posting: document and within-document term frequency.
struct Posting {
  DocId doc = kInvalidDocId;
  uint32_t tf = 0;
};

/// Immutable-after-build inverted + direct index; read-only, and so
/// safe from any number of threads, once built.
class InvertedIndex {
 public:
  /// Indexes every document (title + body) in `store`, growing the
  /// analyzer's vocabulary: each document is analyzed once, title then
  /// body, in ascending id order.
  static InvertedIndex Build(const corpus::DocumentStore& store,
                             text::Analyzer* analyzer);

  /// Posting list of a term (docs ascending); empty list for unknown ids.
  const std::vector<Posting>& Postings(text::TermId term) const;

  /// Number of documents containing the term.
  uint32_t DocFrequency(text::TermId term) const;

  /// Total occurrences of the term in the collection.
  uint64_t CollectionFrequency(text::TermId term) const;

  /// Length (in indexed tokens) of a document.
  uint32_t DocLength(DocId doc) const { return doc_lengths_[doc]; }

  double average_doc_length() const { return avg_doc_length_; }
  size_t num_docs() const { return doc_lengths_.size(); }
  uint64_t total_tokens() const { return total_tokens_; }
  size_t num_terms() const { return postings_.size(); }

  /// Decodes document `doc`'s direct-index record: `title` receives the
  /// title's kept term ids, `body` one id per raw body token
  /// (kInvalidTermId where analysis dropped the token), both in text
  /// order and both overwritten. Every id is below num_terms().
  void DocumentTerms(DocId doc, std::vector<text::TermId>* title,
                     std::vector<text::TermId>* body) const;

  /// Size of the direct index's varint stream.
  size_t direct_bytes() const { return direct_.size(); }

 private:
  std::vector<std::vector<Posting>> postings_;   // by TermId
  std::vector<uint64_t> collection_freq_;        // by TermId
  std::vector<uint32_t> doc_lengths_;            // by DocId
  double avg_doc_length_ = 0.0;
  uint64_t total_tokens_ = 0;
  // Direct index: document d's record is
  // direct_[direct_offsets_[d], direct_offsets_[d + 1]).
  std::vector<uint8_t> direct_;
  std::vector<uint64_t> direct_offsets_;  // by DocId, plus the end
  static const std::vector<Posting> kEmptyPostings;
};

}  // namespace index
}  // namespace optselect

#endif  // OPTSELECT_INDEX_INVERTED_INDEX_H_
