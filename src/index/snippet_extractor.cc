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

/// Counts a snippet's term ids and hands back the distinct ones in
/// ascending order, without a comparison sort. Per vocabulary id there
/// is a presence bit and a one-byte count; per 64-id word of presence
/// bits there is a summary bit, so Drain visits only the words that
/// hold ids. All of it is zero between calls.
class IdCounter {
 public:
  /// Covers ids below `num_terms`. Only grows, so one thread's counter
  /// serves every extractor (every vocabulary) that thread calls.
  void Reserve(size_t num_terms) {
    if (counts_.size() >= num_terms) return;
    counts_.resize(num_terms, 0);
    bits_.resize((num_terms + 63) / 64, 0);
    summary_.resize((bits_.size() + 63) / 64, 0);
  }

  void Add(text::TermId id) {
    distinct_ += counts_[id] == 0;
    counts_[id] += counts_[id] != kSaturated;
    bits_[id >> 6] |= uint64_t{1} << (id & 63);
    summary_[id >> 12] |= uint64_t{1} << ((id >> 6) & 63);
    lowest_ = std::min(lowest_, id);
    highest_ = std::max(highest_, id);
  }

  /// Distinct ids added since the last Drain.
  size_t distinct() const { return distinct_; }

  /// Calls visit(id, count) once per distinct id added since the last
  /// Drain, ids ascending, and zeroes everything Add set. `ids` holds
  /// every id added: a count that reached kSaturated is recounted there.
  template <typename Visit>
  void Drain(const std::vector<text::TermId>& ids, Visit&& visit) {
    if (distinct_ == 0) return;
    for (size_t s = lowest_ >> 12; s <= highest_ >> 12; ++s) {
      for (uint64_t words = summary_[s]; words != 0; words &= words - 1) {
        const size_t w = s * 64 + static_cast<size_t>(__builtin_ctzll(words));
        for (uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
          const auto id = static_cast<text::TermId>(
              w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
          uint32_t count = counts_[id];
          if (count == kSaturated) {
            count = static_cast<uint32_t>(
                std::count(ids.begin(), ids.end(), id));
          }
          counts_[id] = 0;
          visit(id, count);
        }
        bits_[w] = 0;
      }
      summary_[s] = 0;
    }
    distinct_ = 0;
    lowest_ = text::kInvalidTermId;
    highest_ = 0;
  }

 private:
  static constexpr uint8_t kSaturated = 255;

  std::vector<uint8_t> counts_;   // by TermId, saturating at kSaturated
  std::vector<uint64_t> bits_;    // bit id % 64 of word id / 64
  std::vector<uint64_t> summary_;  // bit w % 64 of word w / 64: bits_[w] != 0
  size_t distinct_ = 0;
  text::TermId lowest_ = text::kInvalidTermId;
  text::TermId highest_ = 0;
};

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
  // Each token is tested for a query hit once, against every query
  // term with compares ORed together (no branch on the token); the
  // slide reads the flag twice, entering and leaving the window.
  thread_local std::vector<uint8_t> hit;
  hit.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const text::TermId id = body_ids[i];
    uint8_t h = 0;
    for (text::TermId q : query_terms) h |= id == q;
    hit[i] = h & (id != text::kInvalidTermId);
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
  // analyze to. Each distinct id, ascending, becomes one entry whose
  // weight adds idf[id] once per occurrence — the sums FromEntries
  // forms over (id, idf[id]) pairs, since every addend of an id is the
  // same double. A zero sum is dropped, as FromEntries drops it. Every
  // recorded id is below num_terms(), so idf_ and the counter cover it.
  for (size_t i = begin; i < end; ++i) {
    if (body[i] != text::kInvalidTermId) ids.push_back(body[i]);
  }
  thread_local IdCounter counter;
  counter.Reserve(idf_.size());
  for (text::TermId id : ids) counter.Add(id);
  std::vector<text::TermVector::Entry> entries;
  entries.reserve(counter.distinct());
  counter.Drain(ids, [&](text::TermId id, uint32_t count) {
    const double idf = idf_[id];
    double weight = idf;
    for (uint32_t c = 1; c < count; ++c) weight += idf;
    if (weight != 0.0) entries.emplace_back(id, weight);
  });
  return text::TermVector::FromSortedEntries(std::move(entries));
}

}  // namespace index
}  // namespace optselect
