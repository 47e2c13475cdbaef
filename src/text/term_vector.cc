#include "text/term_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace optselect {
namespace text {

TermVector TermVector::FromEntries(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  TermVector tv;
  tv.entries_.reserve(entries.size());
  for (const Entry& e : entries) {
    if (e.second == 0.0) continue;
    if (!tv.entries_.empty() && tv.entries_.back().first == e.first) {
      tv.entries_.back().second += e.second;
    } else {
      tv.entries_.push_back(e);
    }
  }
  // Summing duplicates may have produced zeros.
  tv.entries_.erase(
      std::remove_if(tv.entries_.begin(), tv.entries_.end(),
                     [](const Entry& e) { return e.second == 0.0; }),
      tv.entries_.end());
  tv.RecomputeNorm();
  return tv;
}

TermVector TermVector::FromSortedEntries(std::vector<Entry> entries) {
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.first >= b.first;
                            }) == entries.end());
  TermVector tv;
  tv.entries_ = std::move(entries);
  tv.RecomputeNorm();
  return tv;
}

TermVector TermVector::FromTermIds(const std::vector<TermId>& ids) {
  std::vector<Entry> entries;
  entries.reserve(ids.size());
  for (TermId id : ids) entries.emplace_back(id, 1.0);
  return FromEntries(std::move(entries));
}

void TermVector::RecomputeNorm() {
  double ss = 0.0;
  for (const Entry& e : entries_) ss += e.second * e.second;
  norm_ = std::sqrt(ss);
}

double TermVector::Dot(const TermVector& other) const {
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    TermId a = entries_[i].first;
    TermId b = other.entries_[j].first;
    if (a == b) {
      dot += entries_[i].second * other.entries_[j].second;
      ++i;
      ++j;
    } else if (a < b) {
      ++i;
    } else {
      ++j;
    }
  }
  return dot;
}

double TermVector::Cosine(const TermVector& other) const {
  if (norm_ == 0.0 || other.norm_ == 0.0) return 0.0;
  double c = Dot(other) / (norm_ * other.norm_);
  // Clamp numeric noise so δ stays in [0, 1].
  if (c < 0.0) return 0.0;
  if (c > 1.0) return 1.0;
  return c;
}

double TermVector::WeightOf(TermId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, TermId target) { return e.first < target; });
  if (it == entries_.end() || it->first != id) return 0.0;
  return it->second;
}

}  // namespace text
}  // namespace optselect
