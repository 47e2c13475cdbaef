#include "index/searcher.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace optselect {
namespace index {

ResultList Searcher::Search(std::string_view query, size_t k) const {
  return SearchTerms(analyzer_->AnalyzeReadOnly(query), k);
}

ResultList Searcher::SearchTerms(const std::vector<text::TermId>& terms,
                                 size_t k) const {
  if (terms.empty() || k == 0) return {};

  // Query term weights = in-query tf.
  std::map<text::TermId, double> qtw;
  for (text::TermId t : terms) qtw[t] += 1.0;

  // Term-at-a-time accumulation.
  std::unordered_map<DocId, double> acc;
  for (const auto& [term, weight] : qtw) {
    for (const Posting& p : index_->Postings(term)) {
      acc[p.doc] += scorer_.Score(p, term, weight);
    }
  }

  ResultList results;
  results.reserve(acc.size());
  for (const auto& [doc, score] : acc) {
    if (score > 0.0) results.push_back(SearchResult{doc, score});
  }

  auto better = [](const SearchResult& a, const SearchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  if (results.size() > k) {
    std::partial_sort(results.begin(), results.begin() + k, results.end(),
                      better);
    results.resize(k);
  } else {
    std::sort(results.begin(), results.end(), better);
  }
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
  auto better = [](const SearchResult& a, const SearchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  if (results.size() > k) {
    std::partial_sort(results.begin(), results.begin() + k, results.end(),
                      better);
    results.resize(k);
  } else {
    std::sort(results.begin(), results.end(), better);
  }
  return results;
}

}  // namespace index
}  // namespace optselect
