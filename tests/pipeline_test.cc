// Integration tests: the full mine → detect → retrieve → diversify →
// evaluate pipeline over the small synthetic testbed.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/optselect.h"
#include "eval/diversity_evaluator.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"

namespace optselect {
namespace pipeline {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new Testbed(TestbedConfig::Small());
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  static Testbed* testbed_;
};

Testbed* PipelineTest::testbed_ = nullptr;

TEST_F(PipelineTest, TestbedComponentsPopulated) {
  EXPECT_EQ(testbed_->universe().topics.size(), 8u);
  EXPECT_GT(testbed_->corpus().store.size(), 0u);
  EXPECT_EQ(testbed_->corpus().topics.size(), 8u);
  EXPECT_GT(testbed_->log_result().log.size(), 0u);
  EXPECT_GT(testbed_->sessions().size(), 0u);
  EXPECT_GT(testbed_->flow_graph().num_nodes(), 0u);
  EXPECT_GT(testbed_->index().num_docs(), 0u);
}

TEST_F(PipelineTest, BaselineRankingRetrievesDocs) {
  PipelineParams params;
  DiversificationPipeline pipeline(testbed_, params);
  const std::string& root = testbed_->universe().topics[0].root_query;
  std::vector<DocId> ranking = pipeline.BaselineRanking(root, 20);
  EXPECT_FALSE(ranking.empty());
  EXPECT_LE(ranking.size(), 20u);
}

TEST_F(PipelineTest, PrepareDetectsPlantedAmbiguity) {
  PipelineParams params;
  params.num_candidates = 100;
  DiversificationPipeline pipeline(testbed_, params);

  size_t ambiguous = 0;
  for (const auto& topic : testbed_->universe().topics) {
    DiversifiedResult r = pipeline.Prepare(topic.root_query);
    if (r.specializations.ambiguous()) {
      ++ambiguous;
      EXPECT_EQ(r.input.specializations.size(),
                r.specializations.items.size());
      EXPECT_EQ(r.utilities.num_candidates(), r.input.candidates.size());
      // Reference lists are capped at |R_q′|.
      for (const auto& sp : r.input.specializations) {
        EXPECT_LE(sp.results.size(), kResultsPerSpecialization);
      }
    }
  }
  EXPECT_GE(ambiguous, 6u) << "most planted topics should be detected";
}

TEST_F(PipelineTest, RelevanceNormalizedToUnitInterval) {
  PipelineParams params;
  DiversificationPipeline pipeline(testbed_, params);
  DiversifiedResult r =
      pipeline.Prepare(testbed_->universe().topics[0].root_query);
  ASSERT_FALSE(r.input.candidates.empty());
  double max_rel = 0;
  for (const auto& c : r.input.candidates) {
    EXPECT_GE(c.relevance, 0.0);
    EXPECT_LE(c.relevance, 1.0);
    max_rel = std::max(max_rel, c.relevance);
  }
  EXPECT_NEAR(max_rel, 1.0, 1e-12);
}

TEST_F(PipelineTest, RunProducesValidRanking) {
  PipelineParams params;
  params.num_candidates = 100;
  params.diversify.k = 20;
  DiversificationPipeline pipeline(testbed_, params);
  core::OptSelectDiversifier algo;

  DiversifiedResult r =
      pipeline.Run(testbed_->universe().topics[0].root_query, algo);
  EXPECT_FALSE(r.ranking.empty());
  EXPECT_LE(r.ranking.size(), 20u);
  std::set<DocId> unique(r.ranking.begin(), r.ranking.end());
  EXPECT_EQ(unique.size(), r.ranking.size()) << "duplicate docs in SERP";
  for (DocId d : r.ranking) {
    EXPECT_TRUE(testbed_->corpus().store.Contains(d));
  }
}

TEST_F(PipelineTest, NonAmbiguousQueryFallsBackToBaseline) {
  PipelineParams params;
  params.diversify.k = 10;
  DiversificationPipeline pipeline(testbed_, params);
  core::OptSelectDiversifier algo;
  // Noise queries have no planted refinements.
  const std::string& noise = testbed_->universe().noise_queries[0];
  DiversifiedResult r = pipeline.Run(noise, algo);
  EXPECT_FALSE(r.diversified);
  std::vector<DocId> baseline = pipeline.BaselineRanking(noise, 10);
  EXPECT_EQ(r.ranking, baseline);
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  PipelineParams params;
  params.diversify.k = 15;
  DiversificationPipeline pipeline(testbed_, params);
  core::OptSelectDiversifier algo;
  const std::string& root = testbed_->universe().topics[1].root_query;
  DiversifiedResult a = pipeline.Run(root, algo);
  DiversifiedResult b = pipeline.Run(root, algo);
  EXPECT_EQ(a.ranking, b.ranking);
}

TEST_F(PipelineTest, AllAlgorithmsProduceRankings) {
  PipelineParams params;
  params.diversify.k = 10;
  DiversificationPipeline pipeline(testbed_, params);
  for (const std::string& name : core::AvailableDiversifiers()) {
    auto algo = core::MakeDiversifier(name);
    ASSERT_TRUE(algo.ok());
    DiversifiedResult r = pipeline.Run(
        testbed_->universe().topics[0].root_query, *algo.value());
    EXPECT_FALSE(r.ranking.empty()) << name;
  }
}

TEST_F(PipelineTest, DiversificationImprovesSubtopicCoverage) {
  // The mechanism behind the Table 3 shape: within the first SERP page
  // (k = 10 selected results), diversified rankings cover at least as
  // many distinct subtopics as the relevance-only DPH baseline, without
  // materially degrading α-NDCG. OptSelect's proportional-coverage
  // constraint speaks about the selected set, so k matches the page size.
  PipelineParams params;
  params.num_candidates = 150;
  params.threshold_c = 0.3;  // sparsifies cross-intent utilities (paper: c sweep)
  params.diversify.k = 10;
  DiversificationPipeline pipeline(testbed_, params);
  core::OptSelectDiversifier optselect;

  eval::Run baseline_run;
  baseline_run.name = "baseline";
  eval::Run diversified_run;
  diversified_run.name = "optselect";

  for (const auto& topic : testbed_->corpus().topics.topics()) {
    baseline_run.rankings[topic.id] =
        pipeline.BaselineRanking(topic.query, params.diversify.k);
    diversified_run.rankings[topic.id] =
        pipeline.Run(topic.query, optselect).ranking;
  }

  auto coverage_at_10 = [&](const eval::Run& run) {
    const corpus::Qrels& qrels = testbed_->corpus().qrels;
    double total = 0;
    for (const auto& topic : testbed_->corpus().topics.topics()) {
      auto it = run.rankings.find(topic.id);
      if (it == run.rankings.end()) continue;
      std::set<uint32_t> covered;
      size_t depth = std::min<size_t>(10, it->second.size());
      for (size_t r = 0; r < depth; ++r) {
        for (uint32_t s = 0; s < topic.subtopics.size(); ++s) {
          if (qrels.Relevant(topic.id, s, it->second[r])) covered.insert(s);
        }
      }
      total += static_cast<double>(covered.size());
    }
    return total / static_cast<double>(testbed_->corpus().topics.size());
  };

  double base_cov = coverage_at_10(baseline_run);
  double div_cov = coverage_at_10(diversified_run);
  EXPECT_GE(div_cov, base_cov)
      << "diversification must not shrink subtopic coverage in the top 10";

  eval::DiversityEvaluator::Options opt;
  opt.cutoffs = {10};
  eval::DiversityEvaluator evaluator(&testbed_->corpus().topics,
                                     &testbed_->corpus().qrels, opt);
  double base = evaluator.Evaluate(baseline_run).alpha_ndcg[10];
  double div = evaluator.Evaluate(diversified_run).alpha_ndcg[10];
  EXPECT_GE(div, base - 0.03)
      << "diversification must not materially degrade α-NDCG@10";
}

TEST(TestbedTest, TwoBuildsFromOneConfigAreEqual) {
  // The log side runs on a second thread beside the retrieval side, and
  // the index build on every available CPU: neither may change a byte.
  const Testbed a(TestbedConfig::Small());
  const Testbed b(TestbedConfig::Small());

  const corpus::DocumentStore& da = a.corpus().store;
  const corpus::DocumentStore& db = b.corpus().store;
  ASSERT_EQ(da.size(), db.size());
  for (DocId d = 0; d < da.size(); ++d) {
    ASSERT_EQ(da.Get(d).url, db.Get(d).url) << "doc " << d;
    ASSERT_EQ(da.Get(d).title, db.Get(d).title) << "doc " << d;
    ASSERT_EQ(da.Get(d).body, db.Get(d).body) << "doc " << d;
  }

  const auto& ra = a.log_result().log.records();
  const auto& rb = b.log_result().log.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i].query, rb[i].query) << "record " << i;
    ASSERT_EQ(ra[i].user, rb[i].user) << "record " << i;
    ASSERT_EQ(ra[i].timestamp, rb[i].timestamp) << "record " << i;
    ASSERT_EQ(ra[i].results, rb[i].results) << "record " << i;
    ASSERT_EQ(ra[i].clicks, rb[i].clicks) << "record " << i;
  }
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  for (size_t i = 0; i < a.sessions().size(); ++i) {
    ASSERT_EQ(a.sessions()[i].user, b.sessions()[i].user);
    ASSERT_EQ(a.sessions()[i].record_indices, b.sessions()[i].record_indices);
  }
  EXPECT_EQ(a.recommender().popularity().counts(),
            b.recommender().popularity().counts());
  EXPECT_EQ(a.recommender().popularity().total(),
            b.recommender().popularity().total());

  for (const synth::TopicSpec& topic : a.universe().topics) {
    const recommend::SpecializationSet sa =
        a.detector().Detect(topic.root_query);
    const recommend::SpecializationSet sb =
        b.detector().Detect(topic.root_query);
    ASSERT_EQ(sa.items.size(), sb.items.size()) << topic.root_query;
    for (size_t j = 0; j < sa.items.size(); ++j) {
      EXPECT_EQ(sa.items[j].query, sb.items[j].query);
      EXPECT_EQ(sa.items[j].frequency, sb.items[j].frequency);
      EXPECT_EQ(sa.items[j].probability, sb.items[j].probability);
    }
  }

  ASSERT_EQ(a.analyzer().vocabulary().size(),
            b.analyzer().vocabulary().size());
  for (text::TermId t = 0; t < a.analyzer().vocabulary().size(); ++t) {
    ASSERT_EQ(a.analyzer().vocabulary().term(t),
              b.analyzer().vocabulary().term(t));
  }
  const index::InvertedIndex& ia = a.index();
  const index::InvertedIndex& ib = b.index();
  ASSERT_EQ(ia.num_terms(), ib.num_terms());
  ASSERT_EQ(ia.direct_bytes(), ib.direct_bytes());
  std::vector<text::TermId> title_a, body_a, title_b, body_b;
  for (DocId d = 0; d < ia.num_docs(); ++d) {
    ia.DocumentTerms(d, &title_a, &body_a);
    ib.DocumentTerms(d, &title_b, &body_b);
    ASSERT_EQ(title_a, title_b) << "doc " << d;
    ASSERT_EQ(body_a, body_b) << "doc " << d;
    ASSERT_EQ(ia.DocLength(d), ib.DocLength(d)) << "doc " << d;
  }
  for (text::TermId t = 0; t < ia.num_terms(); ++t) {
    const auto& pa = ia.Postings(t);
    const auto& pb = ib.Postings(t);
    ASSERT_EQ(pa.size(), pb.size()) << "term " << t;
    for (size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].doc, pb[i].doc) << "term " << t;
      ASSERT_EQ(pa[i].tf, pb[i].tf) << "term " << t;
    }
    ASSERT_EQ(ia.CollectionFrequency(t), ib.CollectionFrequency(t));
  }
  EXPECT_EQ(ia.total_tokens(), ib.total_tokens());
  EXPECT_EQ(ia.average_doc_length(), ib.average_doc_length());
}

TEST(AssembleRankingTest, PicksFirstThenPadsInRankOrder) {
  core::DiversificationInput input;
  for (int i = 0; i < 5; ++i) {
    core::Candidate c;
    c.doc = static_cast<DocId>(100 + i);
    input.candidates.push_back(c);
  }
  std::vector<DocId> r = AssembleRanking(input, {3, 1}, 4);
  EXPECT_EQ(r, (std::vector<DocId>{103, 101, 100, 102}));
}

TEST(AssembleRankingTest, TruncatesAtK) {
  core::DiversificationInput input;
  for (int i = 0; i < 5; ++i) {
    core::Candidate c;
    c.doc = static_cast<DocId>(i);
    input.candidates.push_back(c);
  }
  EXPECT_EQ(AssembleRanking(input, {}, 2), (std::vector<DocId>{0, 1}));
  EXPECT_EQ(AssembleRanking(input, {4}, 1), (std::vector<DocId>{4}));
}

TEST(AssembleRankingTest, KBeyondNReturnsAll) {
  core::DiversificationInput input;
  for (int i = 0; i < 3; ++i) {
    core::Candidate c;
    c.doc = static_cast<DocId>(i);
    input.candidates.push_back(c);
  }
  EXPECT_EQ(AssembleRanking(input, {2}, 10),
            (std::vector<DocId>{2, 0, 1}));
}

TEST_F(PipelineTest, UtilityMatrixConnectsIntentsToCandidates) {
  // For a detected topic, at least one candidate must have positive
  // utility for each mined specialization (the planted clusters exist).
  PipelineParams params;
  params.num_candidates = 150;
  DiversificationPipeline pipeline(testbed_, params);
  for (const auto& topic : testbed_->universe().topics) {
    DiversifiedResult r = pipeline.Prepare(topic.root_query);
    if (!r.specializations.ambiguous()) continue;
    for (size_t j = 0; j < r.input.specializations.size(); ++j) {
      double col_max = 0;
      for (size_t i = 0; i < r.input.candidates.size(); ++i) {
        col_max = std::max(col_max, r.utilities.At(i, j));
      }
      EXPECT_GT(col_max, 0.0)
          << "specialization " << r.input.specializations[j].query
          << " of " << topic.root_query << " matches no candidate";
    }
    break;  // one detected topic suffices for this check
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace optselect
