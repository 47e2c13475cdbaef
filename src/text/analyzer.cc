#include "text/analyzer.h"

#include <cstring>
#include <functional>

namespace optselect {
namespace text {

uint32_t Analyzer::TokenMemo::Hash(std::string_view token) {
  return static_cast<uint32_t>(std::hash<std::string_view>()(token));
}

bool Analyzer::TokenMemo::Find(std::string_view token, TermId* id) const {
  if (slots_.empty()) return false;
  const uint32_t hash = Hash(token);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) return false;
    const Entry& e = entries_[slot - 1];
    if (e.hash == hash && e.length == token.size() &&
        std::memcmp(bytes_.data() + e.offset, token.data(), e.length) ==
            0) {
      *id = e.id;
      return true;
    }
  }
}

void Analyzer::TokenMemo::Insert(std::string_view token, TermId id) {
  entries_.push_back(Entry{static_cast<uint32_t>(bytes_.size()),
                           static_cast<uint32_t>(token.size()), Hash(token),
                           id});
  bytes_.append(token);
  // Load factor <= 1/2 keeps probe runs short.
  if (entries_.size() * 2 > slots_.size()) {
    slots_.assign(slots_.empty() ? 1024 : slots_.size() * 2, 0);
    for (uint32_t e = 0; e < entries_.size(); ++e) Place(e);
  } else {
    Place(static_cast<uint32_t>(entries_.size() - 1));
  }
}

void Analyzer::TokenMemo::Place(uint32_t entry_index) {
  const size_t mask = slots_.size() - 1;
  size_t i = entries_[entry_index].hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = entry_index + 1;
}

std::string Analyzer::Term(std::string_view token) const {
  if (options_.remove_stopwords && stopwords_.Contains(token)) return {};
  return options_.stem ? stemmer_.Stem(token) : std::string(token);
}

TermId Analyzer::LookupToken(std::string_view token) const {
  TermId id;
  if (memo_.Find(token, &id)) return id;
  const std::string term = Term(token);
  return term.empty() ? kInvalidTermId : vocab_.Lookup(term);
}

TermId Analyzer::InternToken(std::string_view token) {
  TermId id;
  if (memo_.Find(token, &id)) return id;
  const std::string term = Term(token);
  id = term.empty() ? kInvalidTermId : vocab_.GetOrAdd(term);
  memo_.Insert(token, id);
  return id;
}

std::vector<TermId> Analyzer::Analyze(std::string_view raw) {
  std::vector<TermId> ids;
  InternEachToken(raw, [&](TermId id) {
    if (id != kInvalidTermId) ids.push_back(id);
  });
  return ids;
}

std::vector<TermId> Analyzer::AnalyzeReadOnly(std::string_view raw) const {
  std::vector<TermId> ids;
  ForEachTokenId(raw, [&](std::string_view, TermId id) {
    if (id != kInvalidTermId) ids.push_back(id);
  });
  return ids;
}

TermVector Analyzer::AnalyzeToVector(std::string_view raw) {
  return TermVector::FromTermIds(Analyze(raw));
}

std::vector<std::string> Analyzer::AnalyzeToStrings(
    std::string_view raw) const {
  std::vector<std::string> out;
  tokenizer_.ForEachToken(raw, [&](std::string_view token) {
    std::string term = Term(token);
    if (!term.empty()) out.push_back(std::move(term));
  });
  return out;
}

}  // namespace text
}  // namespace optselect
