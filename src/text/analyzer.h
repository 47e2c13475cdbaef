// Analysis pipeline: tokenize → stopword-filter → stem → term ids.
//
// One Analyzer instance owns the vocabulary shared by an index and the
// query/snippet processing that must agree with it.
//
// Interning analysis also memoizes every raw token it sees (its term
// id, or that the token is dropped), so read-only analysis of text
// drawn from the indexed collection — query terms and snippet text —
// costs one hash lookup per token instead of a stopword probe, a
// Porter stem and a vocabulary lookup. A token's result never changes
// once known (the vocabulary is append-only and the stopword list and
// stemmer are fixed), so the memo cannot make any analysis differ from
// the unmemoized path.

#ifndef OPTSELECT_TEXT_ANALYZER_H_
#define OPTSELECT_TEXT_ANALYZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/term_vector.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace optselect {
namespace text {

/// Converts raw text into stemmed term-id sequences over a shared
/// vocabulary. The non-const methods (Analyze, AnalyzeToVector,
/// InternEachToken, InternToken) mutate the vocabulary and the token
/// memo and are not thread-safe; the const methods are safe from any
/// number of threads once the vocabulary is frozen (no non-const call
/// runs concurrently).
class Analyzer {
 public:
  struct Options {
    bool remove_stopwords = true;
    bool stem = true;
  };

  Analyzer() : Analyzer(Options{}) {}
  explicit Analyzer(Options options) : options_(options) {}

  /// Calls visit(id) once per raw token of `raw`, in order, with the id
  /// of its term — interned, growing the vocabulary as needed — or
  /// kInvalidTermId where analysis drops the token (stopword, empty
  /// stem). Memoizes each raw token's result.
  template <typename Visit>
  void InternEachToken(std::string_view raw, Visit&& visit) {
    tokenizer_.ForEachToken(
        raw, [&](std::string_view token) { visit(InternToken(token)); });
  }

  /// InternEachToken for one raw token, as tokenizer() yields it: the
  /// memoized result, else the full analysis, interning its term and
  /// memoizing the result. Calling it on each token of a text in order
  /// is InternEachToken; a token seen before changes nothing, so only
  /// the order of first occurrences decides the term ids.
  TermId InternToken(std::string_view token);

  /// The tokenizer every analysis runs first. Const, so safe from any
  /// number of threads, also beside a non-const call.
  const Tokenizer& tokenizer() const { return tokenizer_; }

  /// The kept ids of InternEachToken, in order.
  std::vector<TermId> Analyze(std::string_view raw);

  /// Like Analyze but never grows the vocabulary: unknown terms are
  /// dropped. Used at query time against a built index.
  std::vector<TermId> AnalyzeReadOnly(std::string_view raw) const;

  /// Calls visit(token, id) once per raw token of `raw`, in order, with
  /// the id AnalyzeReadOnly would emit for it, or kInvalidTermId where
  /// AnalyzeReadOnly emits nothing (stopword, empty stem, unknown
  /// term). `token` is valid only during the call.
  template <typename Visit>
  void ForEachTokenId(std::string_view raw, Visit&& visit) const {
    tokenizer_.ForEachToken(raw, [&](std::string_view token) {
      visit(token, LookupToken(token));
    });
  }

  /// Analyze + raw-tf TermVector in one call.
  TermVector AnalyzeToVector(std::string_view raw);

  /// Stemmed string tokens (without interning) — handy for tests.
  std::vector<std::string> AnalyzeToStrings(std::string_view raw) const;

  Vocabulary& vocabulary() { return vocab_; }
  const Vocabulary& vocabulary() const { return vocab_; }
  const Options& options() const { return options_; }

 private:
  /// Raw token → its analysis result (a term id, or kInvalidTermId when
  /// the token is dropped). Open addressing over one byte arena, so a
  /// lookup takes a string_view and never allocates.
  class TokenMemo {
   public:
    /// Sets *id and returns true when `token` is memoized.
    bool Find(std::string_view token, TermId* id) const;
    /// Adds an absent token.
    void Insert(std::string_view token, TermId id);

   private:
    struct Entry {
      uint32_t offset;  // into bytes_
      uint32_t length;
      uint32_t hash;
      TermId id;
    };
    static uint32_t Hash(std::string_view token);
    void Place(uint32_t entry_index);

    std::string bytes_;
    std::vector<Entry> entries_;
    std::vector<uint32_t> slots_;  // 0 = empty, else entry index + 1
  };

  /// The stemmed term of a raw token, or "" when it is dropped (a
  /// stopword, or a token that stems to nothing).
  std::string Term(std::string_view token) const;

  /// Memo hit, else the full read-only analysis of one raw token.
  TermId LookupToken(std::string_view token) const;

  Options options_;
  Tokenizer tokenizer_;
  StopwordSet stopwords_;
  PorterStemmer stemmer_;
  Vocabulary vocab_;
  TokenMemo memo_;
};

}  // namespace text
}  // namespace optselect

#endif  // OPTSELECT_TEXT_ANALYZER_H_
