// Unit tests for the recommend module: the Search-Shortcuts-style
// recommender and Algorithm 1 (AmbiguousQueryDetect).

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "querylog/query_flow_graph.h"
#include "querylog/session_segmenter.h"
#include "querylog/synthetic_log.h"
#include "recommend/ambiguity_detector.h"
#include "recommend/shortcuts_recommender.h"
#include "synth/topic_universe.h"

namespace optselect {
namespace recommend {
namespace {

querylog::QueryRecord MakeRecord(const std::string& q, querylog::UserId user,
                                 int64_t ts) {
  querylog::QueryRecord r;
  r.query = q;
  r.user = user;
  r.timestamp = ts;
  return r;
}

// Builds a tiny hand-crafted log: "leopard" refined into "leopard tank"
// (8 users), "leopard pictures" (4 users), and a one-off "walnut" jump.
querylog::QueryLog HandLog() {
  querylog::QueryLog log;
  int64_t ts = 0;
  querylog::UserId user = 1;
  for (int i = 0; i < 8; ++i) {
    log.Add(MakeRecord("leopard", user, ts));
    log.Add(MakeRecord("leopard tank", user, ts + 30));
    ++user;
    ts += 10000;
  }
  for (int i = 0; i < 4; ++i) {
    log.Add(MakeRecord("leopard", user, ts));
    log.Add(MakeRecord("leopard pictures", user, ts + 30));
    ++user;
    ts += 10000;
  }
  log.Add(MakeRecord("leopard", user, ts));
  log.Add(MakeRecord("walnut", user, ts + 30));
  return log;
}

class ShortcutsRecommenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_ = HandLog();
    graph_ = querylog::QueryFlowGraph::Build(log_, {});
    sessions_ = querylog::SessionSegmenter().Segment(log_, nullptr);
    recommender_.Train(log_, sessions_);
  }

  querylog::QueryLog log_;
  querylog::QueryFlowGraph graph_;
  std::vector<querylog::Session> sessions_;
  ShortcutsRecommender recommender_;
};

TEST_F(ShortcutsRecommenderTest, RecommendsObservedFollowers) {
  auto suggestions = recommender_.Recommend("leopard", 10);
  ASSERT_GE(suggestions.size(), 2u);
  std::vector<std::string> queries;
  for (const auto& s : suggestions) queries.push_back(s.query);
  EXPECT_NE(std::find(queries.begin(), queries.end(), "leopard tank"),
            queries.end());
  EXPECT_NE(std::find(queries.begin(), queries.end(), "leopard pictures"),
            queries.end());
}

TEST_F(ShortcutsRecommenderTest, MoreFrequentFollowerScoresHigher) {
  auto suggestions = recommender_.Recommend("leopard", 10);
  ASSERT_GE(suggestions.size(), 2u);
  EXPECT_EQ(suggestions[0].query, "leopard tank");
  EXPECT_GT(suggestions[0].score, suggestions[1].score);
}

TEST_F(ShortcutsRecommenderTest, MinSupportFiltersOneOffs) {
  // "walnut" followed "leopard" once; default min_pair_support = 2.
  for (const auto& s : recommender_.Recommend("leopard", 50)) {
    EXPECT_NE(s.query, "walnut");
  }
}

TEST_F(ShortcutsRecommenderTest, UnknownQueryYieldsNothing) {
  EXPECT_TRUE(recommender_.Recommend("ghost", 10).empty());
}

TEST_F(ShortcutsRecommenderTest, MaxSuggestionsRespected) {
  EXPECT_LE(recommender_.Recommend("leopard", 1).size(), 1u);
  EXPECT_TRUE(recommender_.Recommend("leopard", 0).empty());
}

TEST_F(ShortcutsRecommenderTest, FrequencyTracksLog) {
  EXPECT_EQ(recommender_.Frequency("leopard"), 13u);
  EXPECT_EQ(recommender_.Frequency("leopard tank"), 8u);
  EXPECT_EQ(recommender_.Frequency("nothing"), 0u);
}

// ----------------------------------------------------------- IsTermSuperset

TEST(TermSupersetTest, Basic) {
  EXPECT_TRUE(IsTermSuperset("leopard tank", "leopard"));
  EXPECT_TRUE(IsTermSuperset("big leopard tank", "leopard tank"));
  EXPECT_FALSE(IsTermSuperset("leopard", "leopard tank"));
  EXPECT_FALSE(IsTermSuperset("walnut", "leopard"));
  EXPECT_TRUE(IsTermSuperset("anything", ""));
}

// -------------------------------------------------------- AmbiguityDetector

class DetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_ = HandLog();
    sessions_ = querylog::SessionSegmenter().Segment(log_, nullptr);
    recommender_.Train(log_, sessions_);
  }

  querylog::QueryLog log_;
  std::vector<querylog::Session> sessions_;
  ShortcutsRecommender recommender_;
};

TEST_F(DetectorTest, DetectsPlantedAmbiguity) {
  AmbiguityDetector detector(&recommender_);
  SpecializationSet set = detector.Detect("leopard");
  ASSERT_TRUE(set.ambiguous());
  EXPECT_EQ(set.root_query, "leopard");
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.items[0].query, "leopard tank");
  EXPECT_EQ(set.items[1].query, "leopard pictures");
}

TEST_F(DetectorTest, ProbabilitiesMatchDefinition1) {
  AmbiguityDetector detector(&recommender_);
  SpecializationSet set = detector.Detect("leopard");
  ASSERT_EQ(set.size(), 2u);
  // f(tank)=8, f(pictures)=4 → P = 8/12, 4/12.
  EXPECT_NEAR(set.items[0].probability, 8.0 / 12.0, 1e-12);
  EXPECT_NEAR(set.items[1].probability, 4.0 / 12.0, 1e-12);
  double sum = 0;
  for (const auto& sp : set.items) sum += sp.probability;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST_F(DetectorTest, UnambiguousQueryRejected) {
  AmbiguityDetector detector(&recommender_);
  // "leopard tank" has no followers at all.
  EXPECT_FALSE(detector.Detect("leopard tank").ambiguous());
  EXPECT_FALSE(detector.Detect("never seen").ambiguous());
}

TEST_F(DetectorTest, PopularityFilterDropsRareCandidates) {
  // With a harsh divisor (s < f(q)/f(q′)) both specializations fall below
  // f(q)/s and the query stops being ambiguous.
  AmbiguityDetector::Options opt;
  opt.popularity_divisor = 1.0;  // threshold = f(leopard) = 13 > 8, 4
  AmbiguityDetector detector(&recommender_, opt);
  EXPECT_FALSE(detector.Detect("leopard").ambiguous());
}

TEST_F(DetectorTest, SupersetFilterDropsUnrelatedFollowers) {
  // Add a frequent follower that shares no term with the root: the
  // recommender suggests it, and it passes the popularity filter.
  querylog::QueryLog log = HandLog();
  int64_t ts = 1000000;
  for (int i = 0; i < 6; ++i) {
    log.Add(MakeRecord("leopard", 100 + i, ts));
    log.Add(MakeRecord("mac os", 100 + i, ts + 20));
    ts += 10000;
  }
  auto sessions = querylog::SessionSegmenter().Segment(log, nullptr);
  ShortcutsRecommender rec;
  rec.Train(log, sessions);
  bool suggested = false;
  for (const Suggestion& s : rec.Recommend("leopard", 50)) {
    suggested |= s.query == "mac os";
  }
  ASSERT_TRUE(suggested);

  AmbiguityDetector detector(&rec);
  SpecializationSet set = detector.Detect("leopard");
  ASSERT_TRUE(set.ambiguous());
  for (const auto& sp : set.items) {
    EXPECT_NE(sp.query, "mac os");
  }
}

TEST_F(DetectorTest, MaxSpecializationsKeepsMostProbable) {
  AmbiguityDetector::Options opt;
  opt.max_specializations = 1;  // forces truncation below the ≥2 rule
  AmbiguityDetector detector(&recommender_, opt);
  SpecializationSet set = detector.Detect("leopard");
  // Truncation happens after the ambiguity check, so the set remains
  // flagged ambiguous but holds only the top specialization.
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.items[0].query, "leopard tank");
  EXPECT_NEAR(set.items[0].probability, 1.0, 1e-12);
}

// ------------------------------------------------- End-to-end mining check

TEST(TrainIncrementalTest, MatchesBatchTrainAtSessionBoundary) {
  // Split the hand log at a session boundary (each HandLog user is one
  // session, 10000s apart): batch-training on the full log must equal
  // training on the head then folding the tail in incrementally.
  querylog::QueryLog full = HandLog();
  querylog::QueryLog head, tail;
  for (const querylog::QueryRecord& r : full.records()) {
    (r.timestamp < 60000 ? head : tail).Add(r);
  }
  ASSERT_FALSE(head.empty());
  ASSERT_FALSE(tail.empty());

  querylog::SessionSegmenter segmenter;
  ShortcutsRecommender batch;
  batch.Train(full, segmenter.Segment(full, nullptr));

  ShortcutsRecommender incremental;
  incremental.Train(head, segmenter.Segment(head, nullptr));
  incremental.TrainIncremental(tail, segmenter.Segment(tail, nullptr));

  EXPECT_EQ(incremental.Frequency("leopard"), batch.Frequency("leopard"));
  EXPECT_EQ(incremental.Frequency("leopard tank"),
            batch.Frequency("leopard tank"));
  EXPECT_EQ(incremental.popularity().total(), batch.popularity().total());
  EXPECT_EQ(incremental.num_source_queries(), batch.num_source_queries());

  std::vector<Suggestion> a = batch.Recommend("leopard", 8);
  std::vector<Suggestion> b = incremental.Recommend("leopard", 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].frequency, b[i].frequency);
  }
}

TEST(TrainIncrementalTest, NewFollowersChangeRecommendations) {
  querylog::QueryLog head = HandLog();
  querylog::SessionSegmenter segmenter;
  ShortcutsRecommender rec;
  rec.Train(head, segmenter.Segment(head, nullptr));
  auto before = rec.Recommend("leopard", 1);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before[0].query, "leopard tank");

  // A burst of "leopard → leopard gecko" refinements arrives.
  querylog::QueryLog tail;
  int64_t ts = 1000000;
  for (querylog::UserId u = 100; u < 120; ++u) {
    tail.Add(MakeRecord("leopard", u, ts));
    tail.Add(MakeRecord("leopard gecko", u, ts + 30));
    ts += 10000;
  }
  rec.TrainIncremental(tail, segmenter.Segment(tail, nullptr));
  auto after = rec.Recommend("leopard", 1);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after[0].query, "leopard gecko");
}

TEST(MiningQualityTest, RecoversPlantedTopicsFromSyntheticLog) {
  synth::TopicUniverseConfig ucfg;
  ucfg.num_topics = 10;
  auto universe = synth::GenerateTopicUniverse(ucfg, 100);

  querylog::SyntheticLogConfig cfg;
  cfg.num_users = 400;
  cfg.num_sessions = 12000;
  auto result = querylog::SyntheticLogGenerator(cfg).Generate(
      universe.topics, universe.noise_queries);

  auto graph = querylog::QueryFlowGraph::Build(result.log, {});
  auto sessions = querylog::SessionSegmenter().Segment(result.log, &graph);
  ShortcutsRecommender rec;
  rec.Train(result.log, sessions);
  AmbiguityDetector detector(&rec);

  // Detection: planted ambiguous roots must be flagged.
  size_t detected = 0;
  for (const synth::TopicSpec& topic : universe.topics) {
    SpecializationSet set = detector.Detect(topic.root_query);
    if (set.ambiguous()) ++detected;
  }
  EXPECT_GE(detected, universe.topics.size() * 8 / 10)
      << "most planted topics should be detected";

  // Probability estimation: mined P(q′|q) of the most popular topic
  // should correlate with the ground-truth probabilities.
  SpecializationSet set = detector.Detect(universe.topics[0].root_query);
  ASSERT_TRUE(set.ambiguous());
  const synth::TopicSpec& truth = universe.topics[0];
  // Find mined probability of the ground-truth top intent.
  double mined_top = 0;
  for (const auto& sp : set.items) {
    if (sp.query == truth.intents[0].query) mined_top = sp.probability;
  }
  EXPECT_GT(mined_top, 0.0) << "dominant intent not mined";
  // Dominant planted intent should be mined as (near-)dominant.
  for (const auto& sp : set.items) {
    EXPECT_LE(sp.probability, mined_top + 0.15);
  }

  // Noise queries must not be declared ambiguous (they have no planted
  // refinements).
  size_t false_positives = 0;
  for (size_t i = 0; i < 50 && i < universe.noise_queries.size(); ++i) {
    if (detector.Detect(universe.noise_queries[i]).ambiguous()) {
      ++false_positives;
    }
  }
  EXPECT_LE(false_positives, 5u);
}

}  // namespace
}  // namespace recommend
}  // namespace optselect
