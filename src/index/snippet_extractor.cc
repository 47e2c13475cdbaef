#include "index/snippet_extractor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace optselect {
namespace index {
namespace {

/// log2(1 + N / (1 + df)): ubiquitous terms (the query itself,
/// boilerplate) stop dominating the cosine; intent-specific vocabulary
/// does.
double Idf(double n_docs, uint32_t df) {
  return std::log2(1.0 + n_docs / (1.0 + static_cast<double>(df)));
}

}  // namespace

SnippetExtractor::SnippetExtractor(const text::Analyzer* analyzer,
                                   const InvertedIndex* index,
                                   Options options)
    : analyzer_(analyzer), index_(index), options_(options) {
  const double n_docs = static_cast<double>(index_->num_docs());
  idf_.resize(index_->num_terms());
  for (text::TermId id = 0; id < idf_.size(); ++id) {
    idf_[id] = Idf(n_docs, index_->DocFrequency(id));
  }
}

std::pair<size_t, size_t> SnippetExtractor::Window(
    const std::vector<text::TermId>& body_ids,
    const std::vector<text::TermId>& query_terms) const {
  const size_t n = body_ids.size();
  const size_t window = std::min(options_.window_tokens, n);
  // Each token is tested for a query hit once; the slide reads the
  // flag twice, entering and leaving the window.
  thread_local std::vector<uint8_t> hit;
  hit.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const text::TermId id = body_ids[i];
    hit[i] = id != text::kInvalidTermId &&
             std::find(query_terms.begin(), query_terms.end(), id) !=
                 query_terms.end();
  }
  // Sliding-window maximum of query-term density.
  size_t best_start = 0;
  int best_hits = -1;
  int current = 0;
  for (size_t i = 0; i < n; ++i) {
    current += hit[i];
    if (i >= window) current -= hit[i - window];
    if (i + 1 >= window) {
      size_t start = i + 1 - window;
      if (current > best_hits) {
        best_hits = current;
        best_start = start;
      }
    }
  }
  return {best_start, std::min(best_start + window, n)};
}

std::string SnippetExtractor::Extract(
    const corpus::Document& doc,
    const std::vector<text::TermId>& query_terms) const {
  std::vector<std::string> tokens;
  std::vector<text::TermId> ids;
  analyzer_->ForEachTokenId(
      doc.body, [&](std::string_view token, text::TermId id) {
        tokens.emplace_back(token);
        ids.push_back(id);
      });
  const auto [begin, end] = Window(ids, query_terms);
  std::string snippet = doc.title;
  for (size_t i = begin; i < end; ++i) {
    snippet.push_back(' ');
    snippet.append(tokens[i]);
  }
  return snippet;
}

text::TermVector SnippetExtractor::ExtractVector(
    const corpus::Document& doc,
    const std::vector<text::TermId>& query_terms) const {
  // Per-thread decode buffers, as long as the longest record this
  // thread has decoded.
  thread_local std::vector<text::TermId> ids;
  thread_local std::vector<text::TermId> body;
  index_->DocumentTerms(doc.id, &ids, &body);
  const auto [begin, end] = Window(body, query_terms);

  // The title's ids, then the window's: the ids the snippet text would
  // analyze to. Sorted, each run of equal ids becomes one entry whose
  // weight adds idf[id] once per occurrence, left to right — the sums
  // FromEntries forms over (id, idf[id]) pairs, since every addend of
  // a run is the same double. A zero sum is dropped, as FromEntries
  // drops it. Every recorded id is below num_terms(), so idf_ covers
  // it.
  for (size_t i = begin; i < end; ++i) {
    if (body[i] != text::kInvalidTermId) ids.push_back(body[i]);
  }
  std::sort(ids.begin(), ids.end());
  size_t distinct = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    distinct += i == 0 || ids[i] != ids[i - 1];
  }
  std::vector<text::TermVector::Entry> entries;
  entries.reserve(distinct);
  for (size_t i = 0; i < ids.size();) {
    const text::TermId id = ids[i];
    const double idf = idf_[id];
    double weight = idf;
    for (++i; i < ids.size() && ids[i] == id; ++i) weight += idf;
    if (weight != 0.0) entries.emplace_back(id, weight);
  }
  return text::TermVector::FromSortedEntries(std::move(entries));
}

}  // namespace index
}  // namespace optselect
