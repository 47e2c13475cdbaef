// Algorithm 1 — AmbiguousQueryDetect(q, A, f(), s).
//
//   1. Ŝq ← A(q)                          (candidate specializations)
//   2. Sq ← { q′ ∈ Ŝq | f(q′) ≥ f(q)/s }  (popularity filter)
//   3. if |Sq| ≥ 2 return Sq else ∅
//
// Step 2 also keeps only candidates that contain every term of q (the
// "stated more precisely" reading of [6]): A is the Shortcuts
// recommender, whose followers include unrelated session jumps.
//
// plus the probability estimate of Definition 1:
//   P(q′|q) = f(q′) / Σ_{q″∈Sq} f(q″).

#ifndef OPTSELECT_RECOMMEND_AMBIGUITY_DETECTOR_H_
#define OPTSELECT_RECOMMEND_AMBIGUITY_DETECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "recommend/shortcuts_recommender.h"

namespace optselect {
namespace recommend {

/// One detected specialization with its mined probability.
struct Specialization {
  std::string query;       ///< specialization string q′
  uint64_t frequency = 0;  ///< f(q′)
  double probability = 0;  ///< P(q′|q), Definition 1
};

/// The set S_q for an ambiguous query (empty ⇒ not ambiguous).
struct SpecializationSet {
  std::string root_query;
  std::vector<Specialization> items;  ///< sorted by probability, desc.

  bool ambiguous() const { return items.size() >= 2; }
  size_t size() const { return items.size(); }
};

/// Detects ambiguous queries and mines their specialization distribution.
class AmbiguityDetector {
 public:
  struct Options {
    /// The `s` divisor of Algorithm 1's popularity filter f(q′) ≥ f(q)/s.
    double popularity_divisor = 10.0;
    /// Maximum candidates requested from the recommender (|Ŝq| cap).
    size_t max_candidates = 50;
    /// Maximum retained specializations. When more survive the filter,
    /// the most probable ones are kept ("if |Sq| > k we select from Sq
    /// the k specializations with the largest probabilities").
    size_t max_specializations = 32;
  };

  AmbiguityDetector(const ShortcutsRecommender* recommender, Options options)
      : recommender_(recommender), options_(options) {}

  explicit AmbiguityDetector(const ShortcutsRecommender* recommender)
      : AmbiguityDetector(recommender, Options{}) {}

  /// Runs Algorithm 1 for `query`. The returned set is empty when the
  /// query is not ambiguous.
  SpecializationSet Detect(std::string_view query) const;

  const Options& options() const { return options_; }

 private:
  const ShortcutsRecommender* recommender_;  // not owned
  Options options_;
};

/// True if every whitespace token of `root` also appears in `candidate`.
bool IsTermSuperset(std::string_view candidate, std::string_view root);

}  // namespace recommend
}  // namespace optselect

#endif  // OPTSELECT_RECOMMEND_AMBIGUITY_DETECTOR_H_
