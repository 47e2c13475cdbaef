// Unit tests for the corpus module: document store, TREC topics, qrels,
// and the synthetic corpus generator.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/document_store.h"
#include "corpus/qrels.h"
#include "corpus/synthetic_corpus.h"
#include "corpus/trec_topics.h"
#include "pipeline/testbed.h"
#include "synth/topic_universe.h"
#include "util/hash.h"
#include "util/strings.h"

namespace optselect {
namespace corpus {
namespace {

// ------------------------------------------------------------ DocumentStore

TEST(DocumentStoreTest, AddAssignsDenseIds) {
  DocumentStore store;
  DocId a = store.Add("http://x/a", "title a", "body a");
  DocId b = store.Add("http://x/b", "title b", "body b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Get(a).title, "title a");
  EXPECT_EQ(store.Get(b).url, "http://x/b");
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
}

TEST(DocumentStoreTest, Iteration) {
  DocumentStore store;
  store.Add("u1", "t1", "b1");
  store.Add("u2", "t2", "b2");
  size_t n = 0;
  for (const Document& d : store) {
    EXPECT_EQ(d.id, n);
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

// ---------------------------------------------------------------- TopicSet

TEST(TopicSetTest, FindByQuery) {
  TopicSet set;
  TrecTopic t;
  t.id = 1;
  t.query = "obama family tree";
  set.Add(t);
  EXPECT_NE(set.FindByQuery("obama family tree"), nullptr);
  EXPECT_EQ(set.FindByQuery("nothing"), nullptr);
}

// ------------------------------------------------------------------- Qrels

TEST(QrelsTest, AddAndLookup) {
  Qrels q;
  q.Add(1, 0, 100, 2);
  q.Add(1, 1, 100, 1);
  q.Add(1, 0, 200, 1);
  EXPECT_EQ(q.Grade(1, 0, 100), 2);
  EXPECT_EQ(q.Grade(1, 1, 100), 1);
  EXPECT_EQ(q.Grade(1, 0, 999), 0);
  EXPECT_TRUE(q.Relevant(1, 0, 200));
  EXPECT_FALSE(q.Relevant(2, 0, 100));
  EXPECT_EQ(q.size(), 3u);
}

TEST(QrelsTest, ReAddOverwritesWithoutDoubleCount) {
  Qrels q;
  q.Add(1, 0, 100, 1);
  q.Add(1, 0, 100, 2);
  EXPECT_EQ(q.Grade(1, 0, 100), 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(QrelsTest, RelevantToAny) {
  Qrels q;
  q.Add(3, 2, 55, 1);
  EXPECT_TRUE(q.RelevantToAny(3, 5, 55));
  EXPECT_FALSE(q.RelevantToAny(3, 2, 55));  // subtopic 2 outside [0,2)
  EXPECT_FALSE(q.RelevantToAny(3, 5, 56));
}

TEST(QrelsTest, CountsAndSubtopics) {
  Qrels q;
  q.Add(1, 0, 10, 1);
  q.Add(1, 0, 11, 1);
  q.Add(1, 0, 12, 0);  // judged non-relevant
  q.Add(1, 3, 13, 1);
  EXPECT_EQ(q.NumRelevant(1, 0), 2u);
  EXPECT_EQ(q.NumRelevant(1, 3), 1u);
  EXPECT_EQ(q.NumRelevant(1, 1), 0u);
  EXPECT_EQ(q.NumSubtopics(1), 4u);
  EXPECT_EQ(q.NumSubtopics(9), 0u);
}

TEST(QrelsTest, JudgmentsEnumeration) {
  Qrels q;
  q.Add(1, 0, 10, 2);
  q.Add(1, 0, 11, 1);
  auto js = q.Judgments(1, 0);
  EXPECT_EQ(js.size(), 2u);
  EXPECT_TRUE(q.Judgments(1, 1).empty());
}

// -------------------------------------------------------- SyntheticCorpus

class SyntheticCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::TopicUniverseConfig ucfg;
    ucfg.num_topics = 5;
    ucfg.min_intents = 3;
    ucfg.max_intents = 4;
    universe_ = synth::GenerateTopicUniverse(ucfg, 0);
    config_.docs_per_intent = 10;
    config_.confusable_docs_per_topic = 5;
    config_.background_docs = 100;
    corpus_ = GenerateSyntheticCorpus(config_, universe_.topics);
  }

  synth::TopicUniverse universe_;
  SyntheticCorpusConfig config_;
  SyntheticCorpus corpus_;
};

TEST_F(SyntheticCorpusTest, TopicSetMirrorsSpecs) {
  ASSERT_EQ(corpus_.topics.size(), universe_.topics.size());
  for (size_t t = 0; t < universe_.topics.size(); ++t) {
    const TrecTopic& topic = corpus_.topics.topic(t);
    EXPECT_EQ(topic.id, t + 1);
    EXPECT_EQ(topic.query, universe_.topics[t].root_query);
    ASSERT_EQ(topic.subtopics.size(), universe_.topics[t].intents.size());
    double sum = 0;
    for (size_t s = 0; s < topic.subtopics.size(); ++s) {
      EXPECT_EQ(topic.subtopics[s].query,
                universe_.topics[t].intents[s].query);
      sum += topic.subtopics[s].probability;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_F(SyntheticCorpusTest, DocCountMatchesPlan) {
  size_t planted = 0;
  for (const auto& t : universe_.topics) {
    planted += t.intents.size() * config_.docs_per_intent;
  }
  size_t expected = planted +
                    universe_.topics.size() *
                        config_.confusable_docs_per_topic +
                    config_.background_docs;
  EXPECT_EQ(corpus_.store.size(), expected);
}

TEST_F(SyntheticCorpusTest, EveryIntentHasJudgedDocs) {
  for (size_t t = 0; t < corpus_.topics.size(); ++t) {
    const TrecTopic& topic = corpus_.topics.topic(t);
    for (uint32_t s = 0; s < topic.subtopics.size(); ++s) {
      EXPECT_EQ(corpus_.qrels.NumRelevant(topic.id, s),
                config_.docs_per_intent)
          << "topic " << topic.id << " subtopic " << s;
    }
  }
}

TEST_F(SyntheticCorpusTest, SomeDocsHighlyRelevant) {
  const TrecTopic& topic = corpus_.topics.topic(0);
  size_t grade2 = 0;
  for (const auto& [doc, grade] : corpus_.qrels.Judgments(topic.id, 0)) {
    if (grade == 2) ++grade2;
  }
  EXPECT_EQ(grade2, static_cast<size_t>(config_.highly_relevant_fraction *
                                        config_.docs_per_intent));
}

TEST_F(SyntheticCorpusTest, RelevantDocsContainIntentTokens) {
  const TrecTopic& topic = corpus_.topics.topic(0);
  auto judged = corpus_.qrels.Judgments(topic.id, 0);
  ASSERT_FALSE(judged.empty());
  const std::string& sub_query = topic.subtopics[0].query;
  std::vector<std::string> tokens = util::SplitWhitespace(sub_query);
  // Titles embed the specialization query verbatim.
  for (const auto& [doc, grade] : judged) {
    const Document& d = corpus_.store.Get(doc);
    for (const std::string& tok : tokens) {
      EXPECT_NE(d.title.find(tok), std::string::npos)
          << "doc " << doc << " title misses token " << tok;
    }
  }
}

TEST_F(SyntheticCorpusTest, BackgroundDocsUnjudged) {
  // The last background_docs ids belong to background documents.
  DocId first_bg =
      static_cast<DocId>(corpus_.store.size() - config_.background_docs);
  for (size_t t = 0; t < corpus_.topics.size(); ++t) {
    const TrecTopic& topic = corpus_.topics.topic(t);
    for (uint32_t s = 0; s < topic.subtopics.size(); ++s) {
      for (const auto& [doc, grade] : corpus_.qrels.Judgments(topic.id, s)) {
        EXPECT_LT(doc, first_bg);
      }
    }
  }
}

TEST_F(SyntheticCorpusTest, DeterministicForSeed) {
  SyntheticCorpus again = GenerateSyntheticCorpus(config_, universe_.topics);
  ASSERT_EQ(again.store.size(), corpus_.store.size());
  for (DocId d = 0; d < corpus_.store.size(); d += 37) {
    EXPECT_EQ(again.store.Get(d).body, corpus_.store.Get(d).body);
  }
}

TEST(SyntheticCorpusBytesTest, SmallCorpusHashIsPinned) {
  // FNV-1a over every document's url, title and body (each after its
  // length), pinned from the generator before it spelled the background
  // vocabulary once per call: the corpus bytes must not move.
  const pipeline::TestbedConfig config = pipeline::TestbedConfig::Small();
  const synth::TopicUniverse universe =
      synth::GenerateTopicUniverse(config.universe, config.num_noise_queries);
  const SyntheticCorpus corpus =
      GenerateSyntheticCorpus(config.corpus, universe.topics);
  uint64_t hash = util::kFnv1aOffsetBasis;
  for (const Document& doc : corpus.store) {
    for (const std::string* field : {&doc.url, &doc.title, &doc.body}) {
      hash = util::Fnv1a64Value(static_cast<uint64_t>(field->size()), hash);
      hash = util::Fnv1a64(field->data(), field->size(), hash);
    }
  }
  EXPECT_EQ(corpus.store.size(), 877u);
  EXPECT_EQ(hash, 0x9aa96b5874b732ebull);
}

TEST_F(SyntheticCorpusTest, DistractorsAreUnjudgedButPresent) {
  SyntheticCorpusConfig cfg = config_;
  cfg.distractor_docs_per_intent = 4;
  SyntheticCorpus c = GenerateSyntheticCorpus(cfg, universe_.topics);
  size_t intents = 0;
  for (const auto& t : universe_.topics) intents += t.intents.size();
  EXPECT_EQ(c.store.size(),
            corpus_.store.size() + intents * cfg.distractor_docs_per_intent);
  // Distractor urls are marked and never judged relevant.
  size_t distractors = 0;
  for (const Document& d : c.store) {
    if (d.url.find("/dx") == std::string::npos) continue;
    ++distractors;
    for (size_t t = 0; t < c.topics.size(); ++t) {
      const TrecTopic& topic = c.topics.topic(t);
      EXPECT_FALSE(c.qrels.RelevantToAny(
          topic.id, static_cast<uint32_t>(topic.subtopics.size()), d.id));
    }
  }
  EXPECT_EQ(distractors, intents * cfg.distractor_docs_per_intent);
}

TEST_F(SyntheticCorpusTest, ProportionalClustersTrackPopularity) {
  SyntheticCorpusConfig cfg = config_;
  cfg.proportional_cluster_size = true;
  SyntheticCorpus c = GenerateSyntheticCorpus(cfg, universe_.topics);
  for (size_t t = 0; t < c.topics.size(); ++t) {
    const TrecTopic& topic = c.topics.topic(t);
    // Cluster sizes are non-increasing in subtopic probability order and
    // never drop below the configured minimum.
    size_t prev = SIZE_MAX;
    for (uint32_t s = 0; s < topic.subtopics.size(); ++s) {
      size_t cluster = c.qrels.NumRelevant(topic.id, s);
      EXPECT_GE(cluster, cfg.min_docs_per_intent);
      EXPECT_LE(cluster, prev);
      prev = cluster;
    }
    // The dominant intent's cluster exceeds the uniform size whenever its
    // probability exceeds 1/m.
    double p0 = topic.subtopics[0].probability;
    if (p0 > 1.5 / static_cast<double>(topic.subtopics.size())) {
      EXPECT_GT(c.qrels.NumRelevant(topic.id, 0), cfg.docs_per_intent);
    }
  }
}

TEST_F(SyntheticCorpusTest, UrlsUnique) {
  std::set<std::string> urls;
  for (const Document& d : corpus_.store) {
    EXPECT_TRUE(urls.insert(d.url).second) << "duplicate url " << d.url;
  }
}

}  // namespace
}  // namespace corpus
}  // namespace optselect
