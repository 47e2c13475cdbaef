#include "index/searcher.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace optselect {
namespace index {

namespace {

/// Keeps the best k of `results` (score descending, ties on ascending
/// doc id), sorted.
void KeepTopK(size_t k, ResultList* results) {
  auto better = [](const SearchResult& a, const SearchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  if (results->size() > k) {
    std::partial_sort(results->begin(), results->begin() + k,
                      results->end(), better);
    results->resize(k);
  } else {
    std::sort(results->begin(), results->end(), better);
  }
}

}  // namespace

ResultList Searcher::Search(std::string_view query, size_t k) const {
  return SearchTerms(analyzer_->AnalyzeReadOnly(query), k);
}

ResultList Searcher::SearchTerms(const std::vector<text::TermId>& terms,
                                 size_t k) const {
  if (terms.empty() || k == 0) return {};

  // One cursor per distinct query term with postings, in ascending
  // term order, weighted by the term's in-query tf.
  struct Cursor {
    const Posting* at;
    const Posting* end;
    text::TermId term;
    double weight;
  };
  std::vector<text::TermId> sorted = terms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<Cursor> cursors;
  size_t postings = 0;
  for (size_t i = 0; i < sorted.size();) {
    const text::TermId term = sorted[i];
    double weight = 0.0;
    for (; i < sorted.size() && sorted[i] == term; ++i) weight += 1.0;
    const std::vector<Posting>& list = index_->Postings(term);
    if (list.empty()) continue;
    postings += list.size();
    cursors.push_back(
        Cursor{list.data(), list.data() + list.size(), term, weight});
  }

  // Document-at-a-time: the lowest doc under any cursor sums the
  // contributions of the cursors on it in ascending term order — the
  // order a term-at-a-time accumulator adds them — and every cursor on
  // it moves past it.
  ResultList results;
  results.reserve(postings);
  for (;;) {
    DocId doc = kInvalidDocId;
    for (const Cursor& c : cursors) {
      if (c.at != c.end) doc = std::min(doc, c.at->doc);
    }
    if (doc == kInvalidDocId) break;
    double score = 0.0;
    for (Cursor& c : cursors) {
      if (c.at != c.end && c.at->doc == doc) {
        score += scorer_.Score(*c.at, c.term, c.weight);
        ++c.at;
      }
    }
    if (score > 0.0) results.push_back(SearchResult{doc, score});
  }
  KeepTopK(k, &results);
  return results;
}

ResultList Searcher::SearchTermsConjunctive(
    const std::vector<text::TermId>& terms, size_t k) const {
  if (terms.empty() || k == 0) return {};

  std::map<text::TermId, double> qtw;
  for (text::TermId t : terms) qtw[t] += 1.0;

  // Order distinct terms by posting-list length; intersect starting from
  // the rarest.
  std::vector<text::TermId> distinct;
  distinct.reserve(qtw.size());
  for (const auto& [term, weight] : qtw) {
    if (index_->Postings(term).empty()) return {};  // term matches nothing
    distinct.push_back(term);
  }
  std::sort(distinct.begin(), distinct.end(),
            [this](text::TermId a, text::TermId b) {
              return index_->Postings(a).size() < index_->Postings(b).size();
            });

  // Seed accumulator from the rarest term, then intersect.
  std::unordered_map<DocId, double> acc;
  {
    text::TermId t0 = distinct[0];
    for (const Posting& p : index_->Postings(t0)) {
      acc[p.doc] = scorer_.Score(p, t0, qtw[t0]);
    }
  }
  for (size_t ti = 1; ti < distinct.size() && !acc.empty(); ++ti) {
    text::TermId t = distinct[ti];
    std::unordered_map<DocId, double> next;
    next.reserve(acc.size());
    for (const Posting& p : index_->Postings(t)) {
      auto it = acc.find(p.doc);
      if (it != acc.end()) {
        next.emplace(p.doc, it->second + scorer_.Score(p, t, qtw[t]));
      }
    }
    acc = std::move(next);
  }

  ResultList results;
  results.reserve(acc.size());
  for (const auto& [doc, score] : acc) {
    if (score > 0.0) results.push_back(SearchResult{doc, score});
  }
  KeepTopK(k, &results);
  return results;
}

}  // namespace index
}  // namespace optselect
