#include "recommend/ambiguity_detector.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace optselect {
namespace recommend {

bool IsTermSuperset(std::string_view candidate, std::string_view root) {
  std::vector<std::string> ct = util::SplitWhitespace(candidate);
  std::unordered_set<std::string> cset(ct.begin(), ct.end());
  for (const std::string& t : util::SplitWhitespace(root)) {
    if (cset.count(t) == 0) return false;
  }
  return true;
}

SpecializationSet AmbiguityDetector::Detect(std::string_view query) const {
  SpecializationSet set;
  set.root_query = std::string(query);

  // Step 1: Ŝq ← A(q).
  std::vector<Suggestion> candidates =
      recommender_->Recommend(query, options_.max_candidates);
  if (candidates.empty()) return set;

  // Step 2: popularity filter f(q′) ≥ f(q)/s.
  const double root_freq =
      static_cast<double>(recommender_->Frequency(query));
  const double threshold = root_freq / options_.popularity_divisor;

  for (const Suggestion& cand : candidates) {
    if (static_cast<double>(cand.frequency) < threshold) continue;
    if (cand.frequency == 0) continue;
    if (!IsTermSuperset(cand.query, query)) continue;
    Specialization sp;
    sp.query = cand.query;
    sp.frequency = cand.frequency;
    set.items.push_back(std::move(sp));
  }

  // Step 3: |Sq| ≥ 2 or give up.
  if (set.items.size() < 2) {
    set.items.clear();
    return set;
  }

  // Keep the most frequent ones when the set is oversized.
  std::sort(set.items.begin(), set.items.end(),
            [](const Specialization& a, const Specialization& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.query < b.query;
            });
  if (set.items.size() > options_.max_specializations) {
    set.items.resize(options_.max_specializations);
  }

  // Definition 1: P(q′|q) = f(q′) / Σ f(·) over the retained set.
  uint64_t total = 0;
  for (const Specialization& sp : set.items) total += sp.frequency;
  for (Specialization& sp : set.items) {
    sp.probability =
        static_cast<double>(sp.frequency) / static_cast<double>(total);
  }
  return set;
}

}  // namespace recommend
}  // namespace optselect
