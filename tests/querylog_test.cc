// Unit tests for the querylog module: log container + TSV round trip,
// synthetic generation, query-flow graph, session segmentation, Zipf
// replay mixes, and incremental log-tail ingestion.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "querylog/log_ingestor.h"
#include "querylog/popularity.h"
#include "querylog/query_flow_graph.h"
#include "querylog/query_log.h"
#include "querylog/session_segmenter.h"
#include "querylog/synthetic_log.h"
#include "synth/topic_universe.h"
#include "util/rng.h"

namespace optselect {
namespace querylog {
namespace {

QueryRecord MakeRecord(const std::string& q, UserId user, int64_t ts,
                       std::vector<DocUrlId> results = {},
                       std::vector<DocUrlId> clicks = {}) {
  QueryRecord r;
  r.query = q;
  r.user = user;
  r.timestamp = ts;
  r.results = std::move(results);
  r.clicks = std::move(clicks);
  return r;
}

// ---------------------------------------------------------------- QueryLog

TEST(QueryLogTest, AddAndAccess) {
  QueryLog log;
  log.Add(MakeRecord("apple", 1, 100));
  log.Add(MakeRecord("apple ipod", 1, 130));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.record(0).query, "apple");
  EXPECT_EQ(log.record(1).timestamp, 130);
}

TEST(QueryLogTest, UserStreamsSortedByTime) {
  QueryLog log;
  log.Add(MakeRecord("c", 2, 300));
  log.Add(MakeRecord("a", 1, 200));
  log.Add(MakeRecord("b", 1, 100));
  auto streams = log.UserStreams();
  ASSERT_EQ(streams.size(), 2u);
  // User 1 stream is time-ordered: "b" then "a".
  EXPECT_EQ(log.record(streams[0][0]).query, "b");
  EXPECT_EQ(log.record(streams[0][1]).query, "a");
  EXPECT_EQ(log.record(streams[1][0]).query, "c");
}

TEST(QueryLogTest, TsvRoundTrip) {
  QueryLog log;
  log.Add(MakeRecord("leopard", 7, 1000, {1, 2, 3}, {2}));
  log.Add(MakeRecord("leopard tank", 7, 1060, {4, 5}, {}));
  std::string path = ::testing::TempDir() + "/qlog_roundtrip.tsv";
  ASSERT_TRUE(log.SaveTsv(path).ok());

  auto loaded = QueryLog::LoadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const QueryLog& l = loaded.value();
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l.record(0).query, "leopard");
  EXPECT_EQ(l.record(0).user, 7u);
  EXPECT_EQ(l.record(0).results, (std::vector<DocUrlId>{1, 2, 3}));
  EXPECT_EQ(l.record(0).clicks, (std::vector<DocUrlId>{2}));
  EXPECT_EQ(l.record(1).results, (std::vector<DocUrlId>{4, 5}));
  EXPECT_TRUE(l.record(1).clicks.empty());
  std::remove(path.c_str());
}

TEST(QueryLogTest, LoadMissingFileFails) {
  auto r = QueryLog::LoadTsv("/nonexistent/path/x.tsv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kIoError);
}

TEST(QueryLogTest, LoadCorruptLineFails) {
  std::string path = ::testing::TempDir() + "/qlog_corrupt.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("only\ttwo\n", f);
  fclose(f);
  auto r = QueryLog::LoadTsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(QueryLogTest, ParseTsvLineRejectsBadNumericFields) {
  struct Case {
    const char* line;
    const char* field;  // named in the error
  };
  const Case cases[] = {
      {"q\tabc\t100\t1\t", "user"},
      {"q\t\t100\t1\t", "user"},
      {"q\t-1\t100\t1\t", "user"},
      {"q\t+7\t100\t1\t", "user"},
      {"q\t 7\t100\t1\t", "user"},
      {"q\t7x\t100\t1\t", "user"},
      {"q\t4294967296\t100\t1\t", "user"},
      {"q\t7\t12x\t1\t", "timestamp"},
      {"q\t7\t\t1\t", "timestamp"},
      {"q\t7\t-\t1\t", "timestamp"},
      {"q\t7\t1.5\t1\t", "timestamp"},
      {"q\t7\t9223372036854775808\t1\t", "timestamp"},
      {"q\t7\t-9223372036854775809\t1\t", "timestamp"},
      {"q\t7\t100\t-1\t", "result id"},
      {"q\t7\t100\t1,4294967296\t", "result id"},
      {"q\t7\t100\t1,,2\t", "result id"},
      {"q\t7\t100\t1x\t", "result id"},
      {"q\t7\t100\t1\t-1", "click id"},
      {"q\t7\t100\t1\t99999999999999999999999", "click id"},
  };
  for (const Case& c : cases) {
    auto r = QueryLog::ParseTsvLine(c.line);
    ASSERT_FALSE(r.ok()) << c.line;
    EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption) << c.line;
    EXPECT_NE(r.status().message().find(c.field), std::string::npos)
        << c.line << " -> " << r.status().message();
  }
}

TEST(QueryLogTest, ParseTsvLineAcceptsFieldExtremes) {
  auto r = QueryLog::ParseTsvLine(
      "q\t4294967295\t-9223372036854775808\t0,4294967295\t4294967295");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().user, 4294967295u);
  EXPECT_EQ(r.value().timestamp, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.value().results, (std::vector<DocUrlId>{0, 4294967295u}));
  EXPECT_EQ(r.value().clicks, (std::vector<DocUrlId>{4294967295u}));
  auto top = QueryLog::ParseTsvLine("q\t0\t9223372036854775807\t\t");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top.value().timestamp, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(top.value().results.empty());
}

TEST(QueryLogTest, LoadTsvNamesTheBadLineAndField) {
  std::string path = ::testing::TempDir() + "/qlog_bad_user.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("good\t1\t100\t1\t\nbad\tabc\t100\t1\t\n", f);
  fclose(f);
  auto r = QueryLog::LoadTsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("user"), std::string::npos);
  std::remove(path.c_str());
}

TEST(QueryLogTest, SplitChronologicalFraction) {
  QueryLog log;
  for (int i = 0; i < 10; ++i) {
    log.Add(MakeRecord("q" + std::to_string(i), 1, 100 * i));
  }
  QueryLog train, test;
  log.SplitChronological(0.7, &train, &test);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
  // Every train timestamp precedes every test timestamp.
  int64_t max_train = 0;
  for (const auto& r : train.records()) {
    max_train = std::max(max_train, r.timestamp);
  }
  for (const auto& r : test.records()) EXPECT_GT(r.timestamp, max_train);
}

// -------------------------------------------------------------- Popularity

TEST(PopularityTest, CountsFrequencies) {
  QueryLog log;
  log.Add(MakeRecord("a", 1, 1));
  log.Add(MakeRecord("a", 2, 2));
  log.Add(MakeRecord("b", 1, 3));
  PopularityMap pop(log);
  EXPECT_EQ(pop.Frequency("a"), 2u);
  EXPECT_EQ(pop.Frequency("b"), 1u);
  EXPECT_EQ(pop.Frequency("zzz"), 0u);
  EXPECT_EQ(pop.distinct(), 2u);
  EXPECT_EQ(pop.total(), 3u);
}

// ------------------------------------------------------------ ZipfQueryMix

class ZipfQueryMixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Strictly decreasing frequencies: rank order is unambiguous.
    pop_.Increment("head", 100);
    pop_.Increment("middle", 50);
    pop_.Increment("tail-a", 10);
    pop_.Increment("tail-b", 10);  // frequency tie with tail-a
    pop_.Increment("rare", 1);
  }
  PopularityMap pop_;
};

TEST_F(ZipfQueryMixTest, DeterministicForSeed) {
  util::Rng rng_a(42), rng_b(42), rng_c(43);
  std::vector<std::string> a = ZipfQueryMix(pop_, 500, 1.0, &rng_a);
  std::vector<std::string> b = ZipfQueryMix(pop_, 500, 1.0, &rng_b);
  std::vector<std::string> c = ZipfQueryMix(pop_, 500, 1.0, &rng_c);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b) << "same seed must replay the identical mix";
  EXPECT_NE(a, c) << "different seeds should diverge";
}

TEST_F(ZipfQueryMixTest, DrawsOnlyKnownQueriesAndRespectsCount) {
  util::Rng rng(7);
  std::vector<std::string> mix = ZipfQueryMix(pop_, 200, 1.0, &rng);
  EXPECT_EQ(mix.size(), 200u);
  for (const std::string& q : mix) {
    EXPECT_GT(pop_.Frequency(q), 0u) << "unknown query in mix: " << q;
  }
  EXPECT_TRUE(ZipfQueryMix(pop_, 0, 1.0, &rng).empty());
}

TEST_F(ZipfQueryMixTest, SkewBoundsHeadShare) {
  // Higher skew concentrates mass on rank 0 ("head"); near-zero skew
  // approaches uniform. With skew 2 the head must dominate every other
  // query; with skew 0 its share must stay near 1/5.
  util::Rng rng(11);
  constexpr size_t kN = 4000;
  auto head_share = [&](double skew) {
    std::vector<std::string> mix = ZipfQueryMix(pop_, kN, skew, &rng);
    size_t head = 0;
    for (const std::string& q : mix) head += q == "head" ? 1 : 0;
    return static_cast<double>(head) / kN;
  };
  double uniform = head_share(0.0);
  double skewed = head_share(2.0);
  EXPECT_NEAR(uniform, 0.2, 0.05);
  EXPECT_GT(skewed, 0.55);  // 1/zeta(2,5 ranks) ≈ 0.68
  EXPECT_GT(skewed, uniform);
}

TEST_F(ZipfQueryMixTest, FrequencyTiesBreakLexicographically) {
  // "tail-a" < "tail-b" with equal frequency ⇒ tail-a gets the better
  // (lower) rank, so at positive skew it must appear at least as often.
  util::Rng rng(5);
  std::vector<std::string> mix = ZipfQueryMix(pop_, 4000, 1.5, &rng);
  size_t a = 0, b = 0;
  for (const std::string& q : mix) {
    a += q == "tail-a" ? 1 : 0;
    b += q == "tail-b" ? 1 : 0;
  }
  EXPECT_GE(a, b);
}

// ------------------------------------------------------------- LogIngestor

class LogIngestorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ingest_tail.tsv";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Append(const std::string& chunk) {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << chunk;
  }

  std::string path_;
};

TEST_F(LogIngestorTest, PollsOnlyNewCompleteLines) {
  Append("apple\t1\t100\t1,2\t1\n");
  LogIngestor ingestor(path_);

  auto first = ingestor.Poll();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().log.size(), 1u);
  EXPECT_EQ(first.value().dirty_queries,
            (std::vector<std::string>{"apple"}));

  // Nothing new ⇒ empty delta, not an error.
  auto idle = ingestor.Poll();
  ASSERT_TRUE(idle.ok());
  EXPECT_TRUE(idle.value().empty());

  // A complete line plus a partial line: only the complete one is
  // consumed; the partial stays for the next poll.
  Append("jaguar\t2\t200\t3\t\njaguar ca");
  auto second = ingestor.Poll();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().log.size(), 1u);
  EXPECT_EQ(second.value().log.record(0).query, "jaguar");

  Append("r\t2\t230\t4\t4\n");
  auto third = ingestor.Poll();
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third.value().log.size(), 1u);
  EXPECT_EQ(third.value().log.record(0).query, "jaguar car");
  EXPECT_EQ(third.value().log.record(0).clicks,
            (std::vector<DocUrlId>{4}));
  EXPECT_EQ(ingestor.records_ingested(), 3u);
}

TEST_F(LogIngestorTest, PopularityMatchesBatchConstruction) {
  Append("apple\t1\t100\t1\t\n");
  Append("apple\t2\t110\t1\t\n");
  Append("jaguar\t1\t120\t2\t\n");
  LogIngestor ingestor(path_);
  ASSERT_TRUE(ingestor.Poll().ok());
  Append("apple\t3\t130\t1\t\n");
  ASSERT_TRUE(ingestor.Poll().ok());

  auto full = QueryLog::LoadTsv(path_);
  ASSERT_TRUE(full.ok());
  PopularityMap batch(full.value());
  EXPECT_EQ(ingestor.popularity().Frequency("apple"),
            batch.Frequency("apple"));
  EXPECT_EQ(ingestor.popularity().Frequency("jaguar"),
            batch.Frequency("jaguar"));
  EXPECT_EQ(ingestor.popularity().total(), batch.total());
}

TEST_F(LogIngestorTest, MalformedLinesSkippedNotFatal) {
  Append("good\t1\t100\t1\t\nonly\ttwo\nalso good\t2\t110\t2\t\n");
  LogIngestor ingestor(path_);
  auto polled = ingestor.Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value().log.size(), 2u);
  EXPECT_EQ(polled.value().malformed_lines, 1u);
  EXPECT_EQ(ingestor.malformed_lines(), 1u);
}

TEST_F(LogIngestorTest, BadNumericFieldsCountAsMalformed) {
  Append("good\t1\t100\t1\t\nbad\tabc\t100\t1\t\n"
         "bad\t1\t12x\t1\t\nbad\t1\t100\t-1\t\n"
         "also good\t2\t110\t2\t\n");
  LogIngestor ingestor(path_);
  auto polled = ingestor.Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value().log.size(), 2u);
  EXPECT_EQ(polled.value().malformed_lines, 3u);
}

TEST_F(LogIngestorTest, SkipToEndIgnoresExistingRecords) {
  Append("old\t1\t100\t1\t\n");
  LogIngestor ingestor(path_);
  ASSERT_TRUE(ingestor.SkipToEnd().ok());
  Append("new\t2\t200\t2\t\n");
  auto polled = ingestor.Poll();
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled.value().log.size(), 1u);
  EXPECT_EQ(polled.value().log.record(0).query, "new");
  EXPECT_EQ(ingestor.popularity().Frequency("old"), 0u);
}

TEST_F(LogIngestorTest, MissingFileIsIoError) {
  LogIngestor ingestor("/nonexistent/dir/tail.tsv");
  auto polled = ingestor.Poll();
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.status().code(), util::StatusCode::kIoError);
}

// ------------------------------------------------------------ SyntheticLog

class SyntheticLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::TopicUniverseConfig ucfg;
    ucfg.num_topics = 6;
    universe_ = synth::GenerateTopicUniverse(ucfg, 50);
    SyntheticLogConfig cfg;
    cfg.num_users = 100;
    cfg.num_sessions = 4000;
    SyntheticLogGenerator gen(cfg);
    result_ = gen.Generate(universe_.topics, universe_.noise_queries);
  }

  synth::TopicUniverse universe_;
  SyntheticLogResult result_;
};

TEST_F(SyntheticLogTest, EmitsRecords) {
  EXPECT_GT(result_.log.size(), 4000u * 0.9);
  EXPECT_EQ(result_.record_topic.size(), result_.log.size());
}

TEST_F(SyntheticLogTest, DeterministicForSeed) {
  SyntheticLogConfig cfg;
  cfg.num_users = 100;
  cfg.num_sessions = 4000;
  SyntheticLogGenerator gen(cfg);
  SyntheticLogResult again =
      gen.Generate(universe_.topics, universe_.noise_queries);
  ASSERT_EQ(again.log.size(), result_.log.size());
  for (size_t i = 0; i < again.log.size(); ++i) {
    EXPECT_EQ(again.log.record(i).query, result_.log.record(i).query);
    EXPECT_EQ(again.log.record(i).timestamp,
              result_.log.record(i).timestamp);
  }
}

TEST_F(SyntheticLogTest, RootQueriesAppear) {
  PopularityMap pop(result_.log);
  for (const synth::TopicSpec& t : universe_.topics) {
    EXPECT_GT(pop.Frequency(t.root_query), 0u)
        << "missing root " << t.root_query;
  }
}

TEST_F(SyntheticLogTest, SpecializationFrequenciesTrackProbabilities) {
  PopularityMap pop(result_.log);
  // For the most popular topic, the most probable specialization must be
  // observed at least as often as the least probable one.
  const synth::TopicSpec& t = universe_.topics[0];
  uint64_t first = pop.Frequency(t.intents.front().query);
  uint64_t last = pop.Frequency(t.intents.back().query);
  EXPECT_GE(first, last);
}

TEST_F(SyntheticLogTest, RefinementEventsCounted) {
  EXPECT_GT(result_.refinement_events, 0u);
  EXPECT_LT(result_.refinement_events, result_.log.size());
}

TEST_F(SyntheticLogTest, ResultsAndClicksWellFormed) {
  for (const QueryRecord& r : result_.log.records()) {
    EXPECT_EQ(r.results.size(), 10u);
    std::set<DocUrlId> rs(r.results.begin(), r.results.end());
    for (DocUrlId c : r.clicks) {
      EXPECT_TRUE(rs.count(c)) << "click outside result set";
    }
  }
}

TEST_F(SyntheticLogTest, PresetsDiffer) {
  SyntheticLogConfig aol = AolLikeConfig();
  SyntheticLogConfig msn = MsnLikeConfig();
  EXPECT_NE(aol.start_timestamp, msn.start_timestamp);
  EXPECT_NE(aol.refinement_probability, msn.refinement_probability);
}

// ---------------------------------------------------------- QueryFlowGraph

class FlowGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two users, clear refinement chains.
    log_.Add(MakeRecord("leopard", 1, 100));
    log_.Add(MakeRecord("leopard tank", 1, 160));
    log_.Add(MakeRecord("leopard", 2, 500));
    log_.Add(MakeRecord("leopard tank", 2, 560));
    log_.Add(MakeRecord("leopard", 3, 900));
    log_.Add(MakeRecord("leopard pictures", 3, 930));
    // A gap larger than the window: no edge.
    log_.Add(MakeRecord("walnut", 4, 1000));
    log_.Add(MakeRecord("leopard", 4, 1000 + 7200));
    graph_ = QueryFlowGraph::Build(log_, QueryFlowGraph::Options{});
  }

  QueryLog log_;
  QueryFlowGraph graph_;
};

TEST_F(FlowGraphTest, NodesForAllQueries) {
  EXPECT_NE(graph_.NodeOf("leopard"), kInvalidQueryNode);
  EXPECT_NE(graph_.NodeOf("leopard tank"), kInvalidQueryNode);
  EXPECT_NE(graph_.NodeOf("walnut"), kInvalidQueryNode);
  EXPECT_EQ(graph_.NodeOf("ghost"), kInvalidQueryNode);
}

TEST_F(FlowGraphTest, ObservedTransitionHasPositiveProbability) {
  EXPECT_GT(graph_.ChainingProbability("leopard", "leopard tank"), 0.0);
  EXPECT_GT(graph_.ChainingProbability("leopard", "leopard pictures"), 0.0);
}

TEST_F(FlowGraphTest, FrequentTransitionBeatsRareOne) {
  // "leopard → leopard tank" seen twice, "→ leopard pictures" once.
  EXPECT_GT(graph_.ChainingProbability("leopard", "leopard tank"),
            graph_.ChainingProbability("leopard", "leopard pictures"));
}

TEST_F(FlowGraphTest, NoEdgeAcrossLongGap) {
  EXPECT_DOUBLE_EQ(graph_.ChainingProbability("walnut", "leopard"), 0.0);
}

TEST_F(FlowGraphTest, UnknownQueriesHaveZeroProbability) {
  EXPECT_DOUBLE_EQ(graph_.ChainingProbability("ghost", "leopard"), 0.0);
  EXPECT_DOUBLE_EQ(graph_.ChainingProbability("leopard", "ghost"), 0.0);
}

TEST_F(FlowGraphTest, LexicalAffinityJaccard) {
  EXPECT_DOUBLE_EQ(QueryFlowGraph::LexicalAffinity("a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(QueryFlowGraph::LexicalAffinity("a", "b"), 0.0);
  EXPECT_NEAR(QueryFlowGraph::LexicalAffinity("leopard", "leopard tank"),
              0.5, 1e-12);
  EXPECT_DOUBLE_EQ(QueryFlowGraph::LexicalAffinity("", "x"), 0.0);
}

TEST_F(FlowGraphTest, EdgeCountsAggregated) {
  QueryNodeId u = graph_.NodeOf("leopard");
  ASSERT_NE(u, kInvalidQueryNode);
  uint32_t tank_count = 0;
  for (const auto& e : graph_.OutEdges(u)) {
    if (graph_.QueryOf(e.to) == "leopard tank") tank_count = e.count;
  }
  EXPECT_EQ(tank_count, 2u);
}

// -------------------------------------------------------- SessionSegmenter

TEST(SessionSegmenterTest, TimeGapSplits) {
  QueryLog log;
  log.Add(MakeRecord("a", 1, 0));
  log.Add(MakeRecord("b", 1, 100));
  log.Add(MakeRecord("c", 1, 100 + 4000));  // > 1800s gap
  SessionSegmenter seg;
  auto sessions = seg.Segment(log, nullptr);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].record_indices.size(), 2u);
  EXPECT_EQ(sessions[1].record_indices.size(), 1u);
}

TEST(SessionSegmenterTest, QfgCutsUnrelatedTransition) {
  QueryLog log;
  // Build a log where "apple → walnut" is a one-off unrelated jump while
  // "apple → apple pie" is frequent.
  for (UserId u = 1; u <= 20; ++u) {
    log.Add(MakeRecord("apple", u, 100 * u));
    log.Add(MakeRecord("apple pie", u, 100 * u + 30));
  }
  log.Add(MakeRecord("apple", 99, 50000));
  log.Add(MakeRecord("walnut", 99, 50030));

  QueryFlowGraph graph = QueryFlowGraph::Build(log, {});
  SessionSegmenter::Options opt;
  opt.min_chain_probability = 0.05;
  SessionSegmenter seg(opt);
  auto sessions = seg.Segment(log, &graph);

  // User 99's stream must be split (apple | walnut), users 1..20 not.
  size_t user99_sessions = 0;
  for (const Session& s : sessions) {
    if (s.user == 99) ++user99_sessions;
    if (s.user >= 1 && s.user <= 20) {
      EXPECT_EQ(s.record_indices.size(), 2u);
    }
  }
  EXPECT_EQ(user99_sessions, 2u);
}

TEST(SessionSegmenterTest, SessionsPartitionTheLog) {
  synth::TopicUniverseConfig ucfg;
  ucfg.num_topics = 4;
  auto universe = synth::GenerateTopicUniverse(ucfg, 30);
  SyntheticLogConfig cfg;
  cfg.num_users = 50;
  cfg.num_sessions = 1000;
  auto result =
      SyntheticLogGenerator(cfg).Generate(universe.topics,
                                          universe.noise_queries);
  QueryFlowGraph graph = QueryFlowGraph::Build(result.log, {});
  auto sessions = SessionSegmenter().Segment(result.log, &graph);

  std::set<size_t> covered;
  for (const Session& s : sessions) {
    EXPECT_FALSE(s.record_indices.empty());
    for (size_t idx : s.record_indices) {
      EXPECT_TRUE(covered.insert(idx).second) << "index in two sessions";
      EXPECT_EQ(result.log.record(idx).user, s.user);
    }
  }
  EXPECT_EQ(covered.size(), result.log.size());
}

TEST(SessionSegmenterTest, EmptyLog) {
  QueryLog log;
  auto sessions = SessionSegmenter().Segment(log, nullptr);
  EXPECT_TRUE(sessions.empty());
}

}  // namespace
}  // namespace querylog
}  // namespace optselect
