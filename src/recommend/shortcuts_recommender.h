// Query recommendation in the style of Search Shortcuts (Broccolo et al.,
// CNR-ISTI TR 2010 — reference [7] of the paper): "The algorithm used
// learns the suggestion model from the query log, and returns as related
// specializations, only queries that are present in Q, and for which
// related probabilities can be, thus, easily computed."
//
// Model: within each logical session, every query q is associated with the
// queries that *followed* it (the user's own refinements, ending in the
// "satisfactory" final query of the session). The suggestion score of a
// candidate q′ for q aggregates (a) how often q′ followed q across
// sessions, discounted by the in-session distance, and (b) the global
// popularity of q′. Candidates are returned most-scored first.
// It is the algorithm A of Algorithm 1, and its popularity map is the
// f(·) there (recommend/ambiguity_detector.h).

#ifndef OPTSELECT_RECOMMEND_SHORTCUTS_RECOMMENDER_H_
#define OPTSELECT_RECOMMEND_SHORTCUTS_RECOMMENDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "querylog/popularity.h"
#include "querylog/query_log.h"
#include "querylog/session_segmenter.h"

namespace optselect {
namespace recommend {

/// One suggestion produced by the recommender.
struct Suggestion {
  std::string query;       ///< suggested query string (present in the log)
  double score = 0.0;      ///< model score (higher = better)
  uint64_t frequency = 0;  ///< global popularity f(q′) in the training log
};

/// Session-trained query recommender.
class ShortcutsRecommender {
 public:
  struct Options {
    /// Positional discount base: a follower at distance d contributes
    /// discount^(d-1) to the co-occurrence weight.
    double distance_discount = 0.6;
    /// Mixing of session co-occurrence vs global popularity in the final
    /// score (1 = co-occurrence only).
    double cooccurrence_weight = 0.8;
    /// Drop (q, q′) pairs observed fewer times than this.
    uint32_t min_pair_support = 2;
  };

  ShortcutsRecommender() : ShortcutsRecommender(Options{}) {}
  explicit ShortcutsRecommender(Options options) : options_(options) {}

  /// Trains the suggestion model from segmented sessions over `log`.
  /// Also ingests global query frequencies from the log. Replaces any
  /// previous model.
  void Train(const querylog::QueryLog& log,
             const std::vector<querylog::Session>& sessions);

  /// Folds a log *delta* (e.g. one LogIngestor poll) into the existing
  /// model without retraining: popularity and pair weights are pure
  /// accumulations, so new sessions simply add their increments.
  /// `delta_sessions` must index into `delta`, not into any earlier
  /// log.
  void TrainIncremental(const querylog::QueryLog& delta,
                        const std::vector<querylog::Session>& delta_sessions);

  /// Returns up to `max_suggestions` suggestions for `query`, best first.
  /// Unknown queries get an empty list.
  std::vector<Suggestion> Recommend(std::string_view query,
                                    size_t max_suggestions) const;

  /// Global frequency of a query in the training log (f(·)).
  uint64_t Frequency(std::string_view query) const {
    return popularity_.Frequency(query);
  }

  const querylog::PopularityMap& popularity() const { return popularity_; }
  size_t num_source_queries() const { return model_.size(); }

 private:
  /// Shared accumulation core of Train / TrainIncremental.
  void AccumulateSessions(const querylog::QueryLog& log,
                          const std::vector<querylog::Session>& sessions);

  Options options_;
  querylog::PopularityMap popularity_;
  // q → (q′ → accumulated discounted co-occurrence weight, support count)
  struct CandidateStats {
    double weight = 0.0;
    uint32_t support = 0;
  };
  std::unordered_map<std::string,
                     std::unordered_map<std::string, CandidateStats>>
      model_;
  double max_pair_weight_ = 1.0;  // normalization constant
};

}  // namespace recommend
}  // namespace optselect

#endif  // OPTSELECT_RECOMMEND_SHORTCUTS_RECOMMENDER_H_
