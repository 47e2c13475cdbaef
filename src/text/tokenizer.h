// Word tokenization for documents and queries.
//
// Mirrors the preprocessing the paper applies through Terrier: lowercase
// ASCII word tokens, digits kept (web queries contain model numbers, years),
// everything else treated as a separator.

#ifndef OPTSELECT_TEXT_TOKENIZER_H_
#define OPTSELECT_TEXT_TOKENIZER_H_

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace optselect {
namespace text {

/// Splits text into lowercase alphanumeric tokens.
class Tokenizer {
 public:
  struct Options {
    /// Tokens longer than this are truncated (Terrier default behaviour for
    /// pathological tokens).
    size_t max_token_length = 64;
    /// Drop tokens shorter than this many characters.
    size_t min_token_length = 1;
  };

  Tokenizer() : Tokenizer(Options{}) {}
  explicit Tokenizer(Options options) : options_(options) {}

  /// Calls visit(token) for each lowercase token of `input`, in order.
  /// The view points into a buffer reused for the next token, so it is
  /// valid only during the call. Allocation-free while
  /// max_token_length <= kInlineTokenBytes.
  template <typename Visit>
  void ForEachToken(std::string_view input, Visit&& visit) const;

  /// Tokenizes `input` into lowercase tokens.
  std::vector<std::string> Tokenize(std::string_view input) const;

  const Options& options() const { return options_; }

  static constexpr size_t kInlineTokenBytes = 64;

 private:
  /// Per byte: its lowercase form when it is a token character
  /// (std::isalnum), else 0. Built once from <cctype>.
  static const std::array<char, 256>& TokenChars();

  Options options_;
};

template <typename Visit>
void Tokenizer::ForEachToken(std::string_view input, Visit&& visit) const {
  const std::array<char, 256>& lower = TokenChars();
  char inline_buf[kInlineTokenBytes];
  std::string heap_buf;
  char* buf = inline_buf;
  if (options_.max_token_length > kInlineTokenBytes) {
    heap_buf.resize(options_.max_token_length);
    buf = &heap_buf[0];
  }
  // A token ends at every separator byte and at the end of the input;
  // with min_token_length == 0 the empty runs between separators are
  // tokens too.
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i < input.size() &&
        lower[static_cast<unsigned char>(input[i])] != 0) {
      continue;
    }
    const size_t len = i - start;
    if (len >= options_.min_token_length) {
      const size_t kept = std::min(len, options_.max_token_length);
      for (size_t k = 0; k < kept; ++k) {
        buf[k] = lower[static_cast<unsigned char>(input[start + k])];
      }
      visit(std::string_view(buf, kept));
    }
    start = i + 1;
  }
}

}  // namespace text
}  // namespace optselect

#endif  // OPTSELECT_TEXT_TOKENIZER_H_
