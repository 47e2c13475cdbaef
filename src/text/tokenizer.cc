#include "text/tokenizer.h"

#include <cctype>

namespace optselect {
namespace text {

const std::array<char, 256>& Tokenizer::TokenChars() {
  static const std::array<char, 256> table = [] {
    std::array<char, 256> t{};
    for (int c = 0; c < 256; ++c) {
      if (std::isalnum(c)) t[c] = static_cast<char>(std::tolower(c));
    }
    return t;
  }();
  return table;
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view input) const {
  std::vector<std::string> tokens;
  ForEachToken(input,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

}  // namespace text
}  // namespace optselect
