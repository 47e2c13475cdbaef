#include "index/inverted_index.h"

namespace optselect {
namespace index {
namespace {

void PutVarint(uint32_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

uint32_t GetVarint(const uint8_t** p) {
  uint32_t value = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = *(*p)++;
    value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if (byte < 0x80) return value;
  }
}

/// One document's term frequencies, counted in a table indexed by term
/// id instead of sorting the document's ids (the table is all zero
/// between documents).
class TermCounter {
 public:
  /// Calls visit(term, tf) once per distinct term of `ids`, in order of
  /// first occurrence.
  template <typename Visit>
  void ForEachTerm(const std::vector<text::TermId>& ids, Visit&& visit) {
    for (text::TermId id : ids) {
      if (id >= counts_.size()) counts_.resize(id + 1, 0);
      if (counts_[id]++ == 0) distinct_.push_back(id);
    }
    for (text::TermId id : distinct_) {
      visit(id, counts_[id]);
      counts_[id] = 0;
    }
    distinct_.clear();
  }

 private:
  std::vector<uint32_t> counts_;  // by TermId
  std::vector<text::TermId> distinct_;
};

}  // namespace

const std::vector<Posting> InvertedIndex::kEmptyPostings = {};

InvertedIndex InvertedIndex::Build(const corpus::DocumentStore& store,
                                   text::Analyzer* analyzer) {
  InvertedIndex idx;
  idx.doc_lengths_.resize(store.size(), 0);
  idx.direct_offsets_.reserve(store.size() + 1);
  idx.direct_offsets_.push_back(0);

  // Pass 1: analyze each document once (title then body — field
  // weighting is not part of the paper's setup, so both count as one
  // field), record it in the direct index, and count each term's
  // document frequency.
  TermCounter counter;
  std::vector<uint32_t> doc_freq;  // by TermId
  std::vector<text::TermId> kept;  // one document's kept ids
  for (const corpus::Document& doc : store) {
    kept.clear();
    analyzer->InternEachToken(doc.title, [&](text::TermId id) {
      if (id != text::kInvalidTermId) kept.push_back(id);
    });
    PutVarint(static_cast<uint32_t>(kept.size()), &idx.direct_);
    for (text::TermId id : kept) PutVarint(id + 1, &idx.direct_);
    analyzer->InternEachToken(doc.body, [&](text::TermId id) {
      // A dropped token's kInvalidTermId + 1 wraps to the stored 0.
      PutVarint(id + 1, &idx.direct_);
      if (id != text::kInvalidTermId) kept.push_back(id);
    });
    idx.direct_offsets_.push_back(idx.direct_.size());

    idx.doc_lengths_[doc.id] = static_cast<uint32_t>(kept.size());
    idx.total_tokens_ += kept.size();
    counter.ForEachTerm(kept, [&](text::TermId term, uint32_t) {
      if (doc_freq.size() <= term) doc_freq.resize(term + 1, 0);
      ++doc_freq[term];
    });
  }
  idx.direct_.shrink_to_fit();

  // Pass 2: every posting list at its exact size, filled from the
  // direct index in ascending document order.
  idx.postings_.resize(doc_freq.size());
  idx.collection_freq_.resize(doc_freq.size(), 0);
  for (text::TermId term = 0; term < doc_freq.size(); ++term) {
    idx.postings_[term].reserve(doc_freq[term]);
  }
  std::vector<text::TermId> body;
  for (DocId doc = 0; doc < store.size(); ++doc) {
    idx.DocumentTerms(doc, &kept, &body);
    for (text::TermId id : body) {
      if (id != text::kInvalidTermId) kept.push_back(id);
    }
    counter.ForEachTerm(kept, [&](text::TermId term, uint32_t tf) {
      idx.postings_[term].push_back(Posting{doc, tf});
      idx.collection_freq_[term] += tf;
    });
  }

  idx.avg_doc_length_ =
      idx.doc_lengths_.empty()
          ? 0.0
          : static_cast<double>(idx.total_tokens_) /
                static_cast<double>(idx.doc_lengths_.size());
  return idx;
}

void InvertedIndex::DocumentTerms(DocId doc, std::vector<text::TermId>* title,
                                  std::vector<text::TermId>* body) const {
  const uint8_t* p = direct_.data() + direct_offsets_[doc];
  const uint8_t* end = direct_.data() + direct_offsets_[doc + 1];
  title->resize(GetVarint(&p));
  for (text::TermId& id : *title) id = GetVarint(&p) - 1;
  body->clear();
  // A stored 0 (a dropped token) decodes to 0 - 1 == kInvalidTermId.
  while (p < end) body->push_back(GetVarint(&p) - 1);
}

const std::vector<Posting>& InvertedIndex::Postings(
    text::TermId term) const {
  if (term >= postings_.size()) return kEmptyPostings;
  return postings_[term];
}

uint32_t InvertedIndex::DocFrequency(text::TermId term) const {
  if (term >= postings_.size()) return 0;
  return static_cast<uint32_t>(postings_[term].size());
}

uint64_t InvertedIndex::CollectionFrequency(text::TermId term) const {
  if (term >= collection_freq_.size()) return 0;
  return collection_freq_[term];
}

}  // namespace index
}  // namespace optselect
