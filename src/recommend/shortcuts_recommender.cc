#include "recommend/shortcuts_recommender.h"

#include <algorithm>
#include <cmath>

namespace optselect {
namespace recommend {

void ShortcutsRecommender::Train(
    const querylog::QueryLog& log,
    const std::vector<querylog::Session>& sessions) {
  model_.clear();
  popularity_ = querylog::PopularityMap(log);
  max_pair_weight_ = 1.0;
  AccumulateSessions(log, sessions);
}

void ShortcutsRecommender::TrainIncremental(
    const querylog::QueryLog& delta,
    const std::vector<querylog::Session>& delta_sessions) {
  for (const querylog::QueryRecord& r : delta.records()) {
    popularity_.Increment(r.query);
  }
  AccumulateSessions(delta, delta_sessions);
}

void ShortcutsRecommender::AccumulateSessions(
    const querylog::QueryLog& log,
    const std::vector<querylog::Session>& sessions) {
  for (const querylog::Session& session : sessions) {
    const auto& idxs = session.record_indices;
    for (size_t i = 0; i < idxs.size(); ++i) {
      const std::string& source = log.record(idxs[i]).query;
      double discount = 1.0;
      for (size_t j = i + 1; j < idxs.size(); ++j) {
        const std::string& follower = log.record(idxs[j]).query;
        if (follower != source) {
          CandidateStats& stats = model_[source][follower];
          stats.weight += discount;
          stats.support += 1;
          max_pair_weight_ = std::max(max_pair_weight_, stats.weight);
        }
        discount *= options_.distance_discount;
      }
    }
  }
}

std::vector<Suggestion> ShortcutsRecommender::Recommend(
    std::string_view query, size_t max_suggestions) const {
  auto it = model_.find(std::string(query));
  if (it == model_.end() || max_suggestions == 0) return {};

  double max_freq = 1.0;
  for (const auto& [cand, stats] : it->second) {
    max_freq = std::max(
        max_freq, static_cast<double>(popularity_.Frequency(cand)));
  }

  std::vector<Suggestion> out;
  out.reserve(it->second.size());
  const double cw = options_.cooccurrence_weight;
  for (const auto& [cand, stats] : it->second) {
    if (stats.support < options_.min_pair_support) continue;
    uint64_t freq = popularity_.Frequency(cand);
    Suggestion s;
    s.query = cand;
    s.frequency = freq;
    double cooc = stats.weight / max_pair_weight_;
    double pop = static_cast<double>(freq) / max_freq;
    s.score = cw * cooc + (1.0 - cw) * pop;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const Suggestion& a,
                                       const Suggestion& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.query < b.query;  // deterministic tie-break
  });
  if (out.size() > max_suggestions) out.resize(max_suggestions);
  return out;
}

}  // namespace recommend
}  // namespace optselect
