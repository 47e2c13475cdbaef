// Unit tests for the index module: inverted index statistics, the direct
// index, DPH scoring properties, top-k search, snippet extraction.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/document_store.h"
#include "corpus/synthetic_corpus.h"
#include "index/dph_scorer.h"
#include "index/inverted_index.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "pipeline/testbed.h"
#include "synth/topic_universe.h"
#include "text/analyzer.h"

namespace optselect {
namespace index {
namespace {

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

class SmallIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.Add("u0", "leopard tank", "leopard tank armor battle leopard");
    store_.Add("u1", "leopard cat", "leopard feline jungle cat");
    store_.Add("u2", "walnut", "walnut tree orchard walnut walnut");
    store_.Add("u3", "empty", "");
    index_ = InvertedIndex::Build(store_, &analyzer_);
  }

  /// Conjunctive retrieval of raw query text, analyzed the way the
  /// store builder analyzes a specialization.
  ResultList Conjunctive(const Searcher& searcher, std::string_view query,
                         size_t k) const {
    return searcher.SearchTermsConjunctive(analyzer_.AnalyzeReadOnly(query),
                                           k);
  }

  corpus::DocumentStore store_;
  text::Analyzer analyzer_;
  InvertedIndex index_;
};

// ------------------------------------------------------------ InvertedIndex

TEST_F(SmallIndexTest, CollectionStats) {
  EXPECT_EQ(index_.num_docs(), 4u);
  EXPECT_GT(index_.num_terms(), 0u);
  EXPECT_GT(index_.total_tokens(), 0u);
  EXPECT_GT(index_.average_doc_length(), 0.0);
  // Doc 3 is title-only ("empty" → one token, not a stopword).
  EXPECT_EQ(index_.DocLength(3), 1u);
}

TEST_F(SmallIndexTest, PostingsSortedWithCorrectTf) {
  text::TermId leopard = analyzer_.vocabulary().Lookup("leopard");
  ASSERT_NE(leopard, text::kInvalidTermId);
  const auto& plist = index_.Postings(leopard);
  ASSERT_EQ(plist.size(), 2u);
  EXPECT_EQ(plist[0].doc, 0u);
  EXPECT_EQ(plist[0].tf, 3u);  // title + 2 body occurrences
  EXPECT_EQ(plist[1].doc, 1u);
  EXPECT_EQ(plist[1].tf, 2u);
  EXPECT_TRUE(std::is_sorted(
      plist.begin(), plist.end(),
      [](const Posting& a, const Posting& b) { return a.doc < b.doc; }));
}

TEST_F(SmallIndexTest, FrequencyAccessors) {
  text::TermId leopard = analyzer_.vocabulary().Lookup("leopard");
  text::TermId walnut = analyzer_.vocabulary().Lookup("walnut");
  EXPECT_EQ(index_.DocFrequency(leopard), 2u);
  EXPECT_EQ(index_.CollectionFrequency(leopard), 5u);
  EXPECT_EQ(index_.DocFrequency(walnut), 1u);
  EXPECT_EQ(index_.CollectionFrequency(walnut), 4u);
  EXPECT_EQ(index_.DocFrequency(999999), 0u);
  EXPECT_TRUE(index_.Postings(999999).empty());
}

// -------------------------------------------------------------- DphScorer

TEST_F(SmallIndexTest, DphPositiveForMatch) {
  text::TermId leopard = analyzer_.vocabulary().Lookup("leopard");
  DphScorer scorer(&index_);
  for (const Posting& p : index_.Postings(leopard)) {
    EXPECT_GT(scorer.Score(p, leopard), 0.0);
  }
}

TEST_F(SmallIndexTest, DphZeroForZeroTf) {
  DphScorer scorer(&index_);
  text::TermId leopard = analyzer_.vocabulary().Lookup("leopard");
  EXPECT_DOUBLE_EQ(scorer.Score(Posting{0, 0}, leopard), 0.0);
}

TEST_F(SmallIndexTest, DphScalesWithQueryTermWeight) {
  DphScorer scorer(&index_);
  text::TermId leopard = analyzer_.vocabulary().Lookup("leopard");
  Posting p = index_.Postings(leopard)[0];
  EXPECT_NEAR(scorer.Score(p, leopard, 2.0), 2.0 * scorer.Score(p, leopard),
              1e-12);
}

TEST(DphPropertyTest, HandComputedValueRegression) {
  // Frozen regression value for the DPH formula on a tiny collection:
  // two docs, the scored term appears tf=2 in a doc of length 4; the
  // other doc has length 4 as well; N=2, TF=2, avgl=4.
  corpus::DocumentStore store;
  store.Add("u0", "t0", "apple apple pear plum");
  store.Add("u1", "t1", "grape melon fig date");
  text::Analyzer analyzer;
  InvertedIndex index = InvertedIndex::Build(store, &analyzer);
  ASSERT_EQ(index.num_docs(), 2u);
  ASSERT_DOUBLE_EQ(index.average_doc_length(), 5.0);  // + title tokens

  text::TermId apple = analyzer.vocabulary().Lookup("appl");
  ASSERT_NE(apple, text::kInvalidTermId);
  const Posting& p = index.Postings(apple)[0];
  ASSERT_EQ(p.tf, 2u);
  double l = index.DocLength(p.doc);
  double f = 2.0 / l;
  double norm = (1.0 - f) * (1.0 - f) / 3.0;
  double expected =
      norm * (2.0 * std::log2((2.0 * 5.0 / l) * (2.0 / 2.0)) +
              0.5 * std::log2(2.0 * M_PI * 2.0 * (1.0 - f)));
  DphScorer scorer(&index);
  EXPECT_NEAR(scorer.Score(p, apple), expected, 1e-12);
}

TEST(DphPropertyTest, RarerTermsScoreHigher) {
  // Build a synthetic collection where "rare" appears in 1 doc and
  // "common" in many, same tf and doc length.
  corpus::DocumentStore store;
  store.Add("u", "t", "rare common filler1 filler2");
  for (int i = 0; i < 20; ++i) {
    store.Add("u", "t", "common fillerx fillery fillerz");
  }
  text::Analyzer analyzer;
  InvertedIndex index = InvertedIndex::Build(store, &analyzer);
  DphScorer scorer(&index);

  text::TermId rare = analyzer.vocabulary().Lookup("rare");
  text::TermId common = analyzer.vocabulary().Lookup("common");
  const Posting& rare_p = index.Postings(rare)[0];
  const Posting& common_p = index.Postings(common)[0];
  ASSERT_EQ(rare_p.doc, common_p.doc);  // same document, same length
  EXPECT_GT(scorer.Score(rare_p, rare), scorer.Score(common_p, common));
}

// ---------------------------------------------------------------- Searcher

TEST_F(SmallIndexTest, SearchReturnsExactlyTheMatchingDocs) {
  Searcher searcher(&index_, &analyzer_);
  ResultList results = searcher.Search("leopard", 10);
  ASSERT_EQ(results.size(), 2u);
  std::set<DocId> docs{results[0].doc, results[1].doc};
  EXPECT_EQ(docs, (std::set<DocId>{0u, 1u}));
  EXPECT_GE(results[0].score, results[1].score);
}

TEST(SearchTfRankingTest, HigherTfWinsAtEqualLength) {
  // DPH normalizes by document length; with equal lengths the document
  // with more query-term occurrences must rank first.
  corpus::DocumentStore store;
  store.Add("uA", "docA",
            "leopard leopard leopard filler1 filler2 filler3 filler4");
  store.Add("uB", "docB",
            "leopard filler5 filler6 filler7 filler8 filler9 fillera");
  text::Analyzer analyzer;
  InvertedIndex index = InvertedIndex::Build(store, &analyzer);
  Searcher searcher(&index, &analyzer);
  ResultList results = searcher.Search("leopard", 10);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc, 0u);
  EXPECT_GT(results[0].score, results[1].score);
}

TEST_F(SmallIndexTest, SearchRespectsK) {
  Searcher searcher(&index_, &analyzer_);
  EXPECT_EQ(searcher.Search("leopard", 1).size(), 1u);
  EXPECT_TRUE(searcher.Search("leopard", 0).empty());
}

TEST_F(SmallIndexTest, MultiTermQueryFavorsDocsMatchingBoth) {
  Searcher searcher(&index_, &analyzer_);
  ResultList results = searcher.Search("leopard tank", 10);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc, 0u);  // only doc with both terms
}

TEST_F(SmallIndexTest, UnknownQueryYieldsNothing) {
  Searcher searcher(&index_, &analyzer_);
  EXPECT_TRUE(searcher.Search("zzzqqq", 10).empty());
  EXPECT_TRUE(searcher.Search("", 10).empty());
}

TEST_F(SmallIndexTest, ScoresSortedDescending) {
  Searcher searcher(&index_, &analyzer_);
  ResultList results = searcher.Search("leopard walnut cat", 10);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST(SearcherDeterminismTest, RepeatedSearchesIdentical) {
  synth::TopicUniverseConfig ucfg;
  ucfg.num_topics = 4;
  auto universe = synth::GenerateTopicUniverse(ucfg, 0);
  corpus::SyntheticCorpusConfig ccfg;
  ccfg.docs_per_intent = 8;
  ccfg.background_docs = 200;
  auto corpus = corpus::GenerateSyntheticCorpus(ccfg, universe.topics);
  text::Analyzer analyzer;
  InvertedIndex index = InvertedIndex::Build(corpus.store, &analyzer);
  Searcher searcher(&index, &analyzer);

  const std::string query = universe.topics[0].root_query;
  ResultList a = searcher.Search(query, 50);
  ResultList b = searcher.Search(query, 50);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST(SearcherRetrievalQualityTest, PlantedDocsRankAboveBackground) {
  synth::TopicUniverseConfig ucfg;
  ucfg.num_topics = 3;
  auto universe = synth::GenerateTopicUniverse(ucfg, 0);
  corpus::SyntheticCorpusConfig ccfg;
  ccfg.docs_per_intent = 10;
  ccfg.background_docs = 500;
  auto corpus = corpus::GenerateSyntheticCorpus(ccfg, universe.topics);
  text::Analyzer analyzer;
  InvertedIndex index = InvertedIndex::Build(corpus.store, &analyzer);
  Searcher searcher(&index, &analyzer);

  // Searching a specialization query should surface its planted cluster.
  const auto& topic = corpus.topics.topic(0);
  const std::string& sub_query = topic.subtopics[0].query;
  ResultList results = searcher.Search(sub_query, 10);
  ASSERT_FALSE(results.empty());
  size_t relevant_in_top = 0;
  for (const SearchResult& hit : results) {
    if (corpus.qrels.Relevant(topic.id, 0, hit.doc)) ++relevant_in_top;
  }
  EXPECT_GE(relevant_in_top, results.size() / 2)
      << "planted cluster should dominate its own specialization query";
}

// ------------------------------------ search against term-at-a-time

/// Reference SearchTerms, term-at-a-time: each term's DPH contributions
/// added into a per-document accumulator in ascending term order, then
/// every positive score sorted best first (ties on ascending doc id)
/// and cut at k.
ResultList TermAtATimeSearch(const InvertedIndex& index,
                             const std::vector<text::TermId>& terms,
                             size_t k) {
  if (terms.empty() || k == 0) return {};
  const DphScorer scorer(&index);
  std::map<text::TermId, double> qtw;
  for (text::TermId t : terms) qtw[t] += 1.0;
  std::map<DocId, double> acc;
  for (const auto& [term, weight] : qtw) {
    for (const Posting& p : index.Postings(term)) {
      acc[p.doc] += scorer.Score(p, term, weight);
    }
  }
  ResultList results;
  for (const auto& [doc, score] : acc) {
    if (score > 0.0) results.push_back(SearchResult{doc, score});
  }
  std::sort(results.begin(), results.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (results.size() > k) results.resize(k);
  return results;
}

/// SearchTerms returns the reference's doc ids, score bits and order at
/// k = 1, at k = |hits| and at k past |hits|. Returns |hits|.
size_t ExpectSearchMatchesReference(const Searcher& searcher,
                                    const InvertedIndex& index,
                                    const std::vector<text::TermId>& terms,
                                    const std::string& what) {
  const size_t hits = TermAtATimeSearch(index, terms, SIZE_MAX).size();
  for (size_t k : {size_t{1}, hits, hits + 7}) {
    const ResultList got = searcher.SearchTerms(terms, k);
    const ResultList want = TermAtATimeSearch(index, terms, k);
    EXPECT_EQ(got.size(), want.size()) << what << " k=" << k;
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].doc, want[i].doc)
          << what << " k=" << k << " rank " << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score))
          << what << " k=" << k << " rank " << i;
    }
  }
  return hits;
}

TEST(SearchMergeTest, MatchesTermAtATimeOnSmallTestbed) {
  pipeline::Testbed tb(pipeline::TestbedConfig::Small());
  const text::Analyzer& analyzer = tb.analyzer();
  const text::TermId unknown =
      static_cast<text::TermId>(tb.index().num_terms());
  size_t queries = 0;
  size_t hits = 0;
  auto check = [&](const std::vector<text::TermId>& terms,
                   const std::string& what) {
    hits += ExpectSearchMatchesReference(tb.searcher(), tb.index(), terms,
                                         what);
    ++queries;
  };
  for (const auto& topic : tb.universe().topics) {
    const std::vector<text::TermId> root =
        analyzer.AnalyzeReadOnly(topic.root_query);
    ASSERT_FALSE(root.empty()) << topic.root_query;
    check(root, topic.root_query);
    // A long query: the root, then every specialization's terms and
    // content words, so documents sum contributions of many terms and
    // the root's terms repeat (in-query tf above 1).
    std::vector<text::TermId> everything = root;
    for (const auto& intent : topic.intents) {
      const std::vector<text::TermId> spec =
          analyzer.AnalyzeReadOnly(intent.query);
      check(spec, intent.query);
      everything.insert(everything.end(), spec.begin(), spec.end());
      for (const std::string& word : intent.content_words) {
        for (text::TermId id : analyzer.AnalyzeReadOnly(word)) {
          everything.push_back(id);
        }
      }
    }
    check(everything, topic.root_query + " with every intent");
    // In-query tf 2, terms out of order, and an id no document holds.
    std::vector<text::TermId> twice = root;
    twice.push_back(root.front());
    check(twice, topic.root_query + " twice");
    std::vector<text::TermId> reversed(everything.rbegin(),
                                       everything.rend());
    check(reversed, topic.root_query + " reversed");
    std::vector<text::TermId> with_unknown = root;
    with_unknown.insert(with_unknown.begin(), unknown);
    check(with_unknown, topic.root_query + " with an unknown term");
  }
  check({unknown}, "only an unknown term");
  check({unknown, text::kInvalidTermId}, "only unknown terms");
  EXPECT_TRUE(tb.searcher().SearchTerms({unknown}, 10).empty());
  EXPECT_GT(queries, 50u);
  EXPECT_GT(hits, 1000u);
}

// ------------------------------------------------- Conjunctive retrieval

TEST_F(SmallIndexTest, ConjunctiveRequiresAllTerms) {
  Searcher searcher(&index_, &analyzer_);
  // "leopard tank": only doc 0 contains both.
  ResultList results = Conjunctive(searcher, "leopard tank", 10);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc, 0u);
  // Disjunctive over the same query returns both leopard docs.
  EXPECT_EQ(searcher.Search("leopard tank", 10).size(), 2u);
}

TEST_F(SmallIndexTest, ConjunctiveEmptyIntersectionIsEmpty) {
  Searcher searcher(&index_, &analyzer_);
  // "leopard" and "walnut" occur in disjoint documents.
  EXPECT_TRUE(Conjunctive(searcher, "leopard walnut", 10).empty());
  EXPECT_TRUE(Conjunctive(searcher, "", 10).empty());
  // Unknown terms are dropped by read-only analysis (consistent with the
  // disjunctive path), so the remaining terms still match.
  EXPECT_FALSE(Conjunctive(searcher, "leopard unicornxyz", 10).empty());
}

TEST_F(SmallIndexTest, ConjunctiveSingleTermEqualsDisjunctive) {
  Searcher searcher(&index_, &analyzer_);
  ResultList conj = Conjunctive(searcher, "leopard", 10);
  ResultList disj = searcher.Search("leopard", 10);
  ASSERT_EQ(conj.size(), disj.size());
  for (size_t i = 0; i < conj.size(); ++i) {
    EXPECT_EQ(conj[i].doc, disj[i].doc);
    EXPECT_DOUBLE_EQ(conj[i].score, disj[i].score);
  }
}

TEST_F(SmallIndexTest, ConjunctiveScoresSumBothTerms) {
  Searcher searcher(&index_, &analyzer_);
  ResultList conj = Conjunctive(searcher, "leopard tank", 10);
  ResultList root_only = searcher.Search("leopard", 10);
  ASSERT_FALSE(conj.empty());
  // Conjunctive score (both terms) exceeds the single-term score of the
  // same document.
  double root_score = 0;
  for (const SearchResult& r : root_only) {
    if (r.doc == conj[0].doc) root_score = r.score;
  }
  EXPECT_GT(conj[0].score, root_score);
}

TEST(ConjunctivePropertyTest, SubsetOfDisjunctiveMatches) {
  synth::TopicUniverseConfig ucfg;
  ucfg.num_topics = 5;
  auto universe = synth::GenerateTopicUniverse(ucfg, 0);
  corpus::SyntheticCorpusConfig ccfg;
  ccfg.docs_per_intent = 10;
  ccfg.background_docs = 300;
  auto corpus = corpus::GenerateSyntheticCorpus(ccfg, universe.topics);
  text::Analyzer analyzer;
  InvertedIndex index = InvertedIndex::Build(corpus.store, &analyzer);
  Searcher searcher(&index, &analyzer);

  for (const auto& topic : universe.topics) {
    for (const auto& intent : topic.intents) {
      std::vector<text::TermId> terms =
          analyzer.AnalyzeReadOnly(intent.query);
      ResultList conj = searcher.SearchTermsConjunctive(terms, 1000);
      ResultList disj = searcher.Search(intent.query, 100000);
      std::set<DocId> disj_docs;
      for (const SearchResult& r : disj) disj_docs.insert(r.doc);
      for (const SearchResult& r : conj) {
        EXPECT_TRUE(disj_docs.count(r.doc));
        // Every conjunctive hit contains every query term.
        for (text::TermId t : terms) {
          bool found = false;
          for (const Posting& p : index.Postings(t)) {
            if (p.doc == r.doc) {
              found = true;
              break;
            }
          }
          EXPECT_TRUE(found) << "doc " << r.doc << " misses a term";
        }
      }
    }
  }
}

// -------------------------------------------------------- SnippetExtractor

TEST_F(SmallIndexTest, SnippetContainsQueryNeighborhood) {
  SnippetExtractor extractor(&analyzer_, &index_);
  std::vector<text::TermId> q = analyzer_.AnalyzeReadOnly("battle");
  std::string snippet = extractor.Extract(store_.Get(0), q);
  EXPECT_NE(snippet.find("battle"), std::string::npos);
  // Title always included.
  EXPECT_NE(snippet.find("leopard tank"), std::string::npos);
}

TEST_F(SmallIndexTest, SnippetOfEmptyBodyIsTitle) {
  SnippetExtractor extractor(&analyzer_, &index_);
  std::vector<text::TermId> q = analyzer_.AnalyzeReadOnly("empty");
  EXPECT_EQ(extractor.Extract(store_.Get(3), q), "empty");
}

TEST(SnippetWindowTest, PicksDensestWindow) {
  corpus::DocumentStore store;
  // Query terms clustered at the far end of a long body.
  std::string body;
  for (int i = 0; i < 200; ++i) body += "filler ";
  body += "target target target nearby";
  store.Add("u", "doc", body);
  text::Analyzer analyzer;
  InvertedIndex index = InvertedIndex::Build(store, &analyzer);

  SnippetExtractor::Options opt;
  opt.window_tokens = 4;
  SnippetExtractor extractor(&analyzer, &index, opt);
  std::vector<text::TermId> q = analyzer.AnalyzeReadOnly("target nearby");
  std::string snippet = extractor.Extract(store.Get(0), q);
  EXPECT_NE(snippet.find("target"), std::string::npos);
  EXPECT_NE(snippet.find("nearby"), std::string::npos);
  // The densest 4-token window is exactly the query-term run at the end.
  EXPECT_EQ(snippet.find("filler"), std::string::npos);
}

TEST_F(SmallIndexTest, ExtractVectorMatchesSnippetTerms) {
  SnippetExtractor extractor(&analyzer_, &index_);
  std::vector<text::TermId> q = analyzer_.AnalyzeReadOnly("leopard");
  text::TermVector v = extractor.ExtractVector(store_.Get(0), q);
  EXPECT_FALSE(v.empty());
  text::TermId leopard = analyzer_.vocabulary().Lookup("leopard");
  EXPECT_GT(v.WeightOf(leopard), 0.0);
}

/// The raw-tf vector of the snippet text: the contrast for the
/// idf-weighted surrogate.
text::TermVector RawTfVector(const text::Analyzer& analyzer,
                             const SnippetExtractor& extractor,
                             const corpus::Document& doc,
                             const std::vector<text::TermId>& q) {
  return text::TermVector::FromTermIds(
      analyzer.AnalyzeReadOnly(extractor.Extract(doc, q)));
}

TEST_F(SmallIndexTest, IdfWeightedVectorsDemoteCommonTerms) {
  // "leopard" appears in two docs, "armor" in one: with idf weighting the
  // rarer term must carry more weight per occurrence.
  SnippetExtractor weighted(&analyzer_, &index_);
  std::vector<text::TermId> q = analyzer_.AnalyzeReadOnly("leopard armor");
  text::TermVector v = weighted.ExtractVector(store_.Get(0), q);
  text::TermId leopard = analyzer_.vocabulary().Lookup("leopard");
  text::TermId armor = analyzer_.vocabulary().Lookup("armor");
  // Raw tf: leopard 3, armor 1. idf flips the per-occurrence weight.
  text::TermVector r = RawTfVector(analyzer_, weighted, store_.Get(0), q);
  double raw_ratio = r.WeightOf(leopard) / r.WeightOf(armor);
  double weighted_ratio = v.WeightOf(leopard) / v.WeightOf(armor);
  EXPECT_LT(weighted_ratio, raw_ratio);
}

TEST_F(SmallIndexTest, IdfWeightingReducesCrossTopicSimilarity) {
  // Docs 0 and 1 share only "leopard" (a common term); idf weighting
  // must shrink their cosine relative to raw tf vectors.
  SnippetExtractor weighted(&analyzer_, &index_);
  std::vector<text::TermId> q = analyzer_.AnalyzeReadOnly("leopard");
  double raw_cos =
      RawTfVector(analyzer_, weighted, store_.Get(0), q)
          .Cosine(RawTfVector(analyzer_, weighted, store_.Get(1), q));
  double wtd_cos = weighted.ExtractVector(store_.Get(0), q)
                       .Cosine(weighted.ExtractVector(store_.Get(1), q));
  EXPECT_LT(wtd_cos, raw_cos);
}

// ---------------------------------- extraction against the two-pass path

/// Reference Extract: tokenize the body, analyze each token on its
/// own, slide the window over the query-term hits, prepend the title.
std::string OracleExtract(const text::Analyzer& analyzer,
                          const corpus::Document& doc,
                          const std::vector<text::TermId>& query_terms,
                          size_t window_tokens) {
  std::vector<std::string> tokens = text::Tokenizer().Tokenize(doc.body);
  const size_t window = std::min(window_tokens, tokens.size());
  if (tokens.empty()) return doc.title;
  std::unordered_set<text::TermId> qset(query_terms.begin(),
                                        query_terms.end());
  std::vector<int> hit(tokens.size(), 0);
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (text::TermId id : analyzer.AnalyzeReadOnly(tokens[i])) {
      if (qset.count(id)) {
        hit[i] = 1;
        break;
      }
    }
  }
  size_t best_start = 0;
  int best_hits = -1;
  int current = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    current += hit[i];
    if (i >= window) current -= hit[i - window];
    if (i + 1 >= window && current > best_hits) {
      best_hits = current;
      best_start = i + 1 - window;
    }
  }
  std::string snippet = doc.title;
  for (size_t i = best_start;
       i < std::min(best_start + window, tokens.size()); ++i) {
    snippet.push_back(' ');
    snippet.append(tokens[i]);
  }
  return snippet;
}

/// Reference ExtractVector: analyze the snippet text a second time,
/// weight by idf, FromEntries.
text::TermVector OracleVector(const text::Analyzer& analyzer,
                              const InvertedIndex& index,
                              const std::string& snippet) {
  std::vector<text::TermVector::Entry> entries;
  const double n_docs = static_cast<double>(index.num_docs());
  for (text::TermId id : analyzer.AnalyzeReadOnly(snippet)) {
    double df = static_cast<double>(index.DocFrequency(id));
    entries.emplace_back(id, std::log2(1.0 + n_docs / (1.0 + df)));
  }
  return text::TermVector::FromEntries(std::move(entries));
}

/// Extract equals the two-pass text, and ExtractVector equals analyzing
/// that text, in entries and norm bits.
void ExpectMatchesOracle(const text::Analyzer& analyzer,
                         const InvertedIndex& index,
                         const SnippetExtractor& extractor, size_t window,
                         const corpus::Document& doc,
                         const std::vector<text::TermId>& q) {
  const std::string want_text = OracleExtract(analyzer, doc, q, window);
  ASSERT_EQ(extractor.Extract(doc, q), want_text) << "doc " << doc.id;
  const text::TermVector want = OracleVector(analyzer, index, want_text);
  const text::TermVector got = extractor.ExtractVector(doc, q);
  ASSERT_EQ(got.size(), want.size()) << "doc " << doc.id;
  for (size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got.entries()[e].first, want.entries()[e].first);
    ASSERT_EQ(Bits(got.entries()[e].second), Bits(want.entries()[e].second));
  }
  ASSERT_EQ(Bits(got.norm()), Bits(want.norm())) << "doc " << doc.id;
}

/// `docs` with stopwords interleaved into every body: after its i-th
/// word come i % 3 of them, so a window covers runs of 0, 1 and 2
/// tokens that analysis drops.
corpus::DocumentStore WithStopwords(const corpus::DocumentStore& docs) {
  static const char* const kStopwords[] = {"the", "of", "and", "to", "in"};
  corpus::DocumentStore out;
  size_t next = 0;
  for (const corpus::Document& doc : docs) {
    std::istringstream words(doc.body);
    std::string word;
    std::string body;
    for (size_t i = 0; words >> word; ++i) {
      if (!body.empty()) body.push_back(' ');
      body += word;
      for (size_t s = 0; s < i % 3; ++s) {
        body.push_back(' ');
        body += kStopwords[next++ % std::size(kStopwords)];
      }
    }
    out.Add(doc.url, doc.title, body);
  }
  return out;
}

TEST(SnippetOracleTest, ExtractionMatchesTheTwoPassPathOnSmallTestbed) {
  pipeline::Testbed tb(pipeline::TestbedConfig::Small());
  // The testbed as built, and its documents with stopwords interleaved
  // (the synthetic corpus has none), indexed here with a fresh analyzer
  // so the window also slides over dropped tokens.
  const corpus::DocumentStore stopword_docs = WithStopwords(tb.corpus().store);
  text::Analyzer stopword_analyzer;
  const InvertedIndex stopword_index =
      InvertedIndex::Build(stopword_docs, &stopword_analyzer);
  size_t dropped = 0;
  stopword_analyzer.ForEachTokenId(
      stopword_docs.Get(0).body, [&](std::string_view, text::TermId id) {
        dropped += id == text::kInvalidTermId;
      });
  ASSERT_GT(dropped, 0u);

  struct Input {
    const text::Analyzer* analyzer;
    const InvertedIndex* index;
    const corpus::DocumentStore* docs;
  };
  const Input inputs[] = {
      {&tb.analyzer(), &tb.index(), &tb.corpus().store},
      {&stopword_analyzer, &stopword_index, &stopword_docs}};
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.docs == &stopword_docs ? "stopword input" : "testbed");
    struct Setup {
      SnippetExtractor extractor;
      size_t window;
    };
    auto setup = [&](size_t window) {
      SnippetExtractor::Options options;
      options.window_tokens = window;
      return Setup{SnippetExtractor(in.analyzer, in.index, options), window};
    };
    // The default window, a narrow one, and one wider than every body.
    const std::vector<Setup> setups = {setup(30), setup(7), setup(100000)};
    size_t pairs = 0;
    for (const auto& topic : tb.universe().topics) {
      std::vector<text::TermId> q =
          in.analyzer->AnalyzeReadOnly(topic.root_query);
      ASSERT_FALSE(q.empty()) << topic.root_query;
      for (const corpus::Document& doc : *in.docs) {
        for (const Setup& s : setups) {
          ExpectMatchesOracle(*in.analyzer, *in.index, s.extractor, s.window,
                              doc, q);
          if (::testing::Test::HasFatalFailure()) return;
        }
        ++pairs;
      }
    }
    EXPECT_GT(pairs, 1000u);
  }
}

/// Documents whose ids sit at the edges of the extractor's counter: the
/// first body assigns w0..w4199 the ids 0..4199 (two summary words of
/// 4096 ids each), so a word's id is its number.
corpus::DocumentStore WordEdgeStore() {
  corpus::DocumentStore store;
  std::string vocabulary;
  for (int i = 0; i < 4200; ++i) vocabulary += "w" + std::to_string(i) + " ";
  store.Add("u0", "", vocabulary);
  // Word-edge ids in the window, and the title's terms repeated in it.
  store.Add("u1", "w63 w64",
            "w9 w0 w63 w64 w127 w128 w4095 w4096 w4199 w63 w64 w0 w9");
  // The same ids in the title only.
  store.Add("u2", "w0 w63 w64 w127 w4199", "w9 w10 w11");
  // One id 300 times, more than a one-byte count holds.
  std::string repeated;
  for (int i = 0; i < 300; ++i) repeated += "w5 ";
  store.Add("u3", "w5", repeated + "w4199");
  return store;
}

TEST(SnippetOracleTest, IdsAtTheCounterWordEdgesMatchTheTwoPassPath) {
  const corpus::DocumentStore store = WordEdgeStore();
  text::Analyzer analyzer;
  const InvertedIndex index = InvertedIndex::Build(store, &analyzer);
  ASSERT_EQ(index.num_terms(), 4200u);
  for (text::TermId id : {0u, 63u, 64u, 127u, 4095u, 4096u, 4199u}) {
    ASSERT_EQ(analyzer.vocabulary().Lookup("w" + std::to_string(id)), id);
  }
  for (size_t window : {size_t{30}, size_t{7}, size_t{100000}}) {
    SnippetExtractor::Options options;
    options.window_tokens = window;
    const SnippetExtractor extractor(&analyzer, &index, options);
    for (const char* query : {"w64", "w0 w4199", "w5", "w9", "w63 w127"}) {
      const std::vector<text::TermId> q = analyzer.AnalyzeReadOnly(query);
      for (const corpus::Document& doc : store) {
        ExpectMatchesOracle(analyzer, index, extractor, window, doc, q);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The title's w5 and all 300 in the window: 301 occurrences.
  SnippetExtractor::Options whole;
  whole.window_tokens = 100000;
  const SnippetExtractor extractor(&analyzer, &index, whole);
  const text::TermVector v =
      extractor.ExtractVector(store.Get(3), analyzer.AnalyzeReadOnly("w5"));
  ASSERT_EQ(v.size(), 2u);
  const double idf = std::log2(1.0 + 4.0 / (1.0 + index.DocFrequency(5)));
  double want = idf;
  for (int i = 1; i < 301; ++i) want += idf;
  EXPECT_EQ(Bits(v.WeightOf(5)), Bits(want));
}

TEST(SnippetOracleTest, OneThreadAlternatesExtractorsOverTwoVocabularies) {
  pipeline::Testbed tb(pipeline::TestbedConfig::Small());
  const corpus::DocumentStore edge_docs = WordEdgeStore();
  text::Analyzer edge_analyzer;
  const InvertedIndex edge_index =
      InvertedIndex::Build(edge_docs, &edge_analyzer);
  ASSERT_NE(tb.index().num_terms(), edge_index.num_terms());
  struct Input {
    const text::Analyzer* analyzer;
    const InvertedIndex* index;
    const corpus::DocumentStore* docs;
    std::vector<text::TermId> query;
  };
  std::vector<Input> inputs = {
      {&tb.analyzer(), &tb.index(), &tb.corpus().store,
       tb.analyzer().AnalyzeReadOnly(tb.universe().topics[0].root_query)},
      {&edge_analyzer, &edge_index, &edge_docs,
       edge_analyzer.AnalyzeReadOnly("w64 w5")}};
  // The smaller vocabulary first, so the thread's counter grows between
  // two calls.
  if (inputs[0].index->num_terms() > inputs[1].index->num_terms()) {
    std::swap(inputs[0], inputs[1]);
  }
  const SnippetExtractor first(inputs[0].analyzer, inputs[0].index);
  const SnippetExtractor second(inputs[1].analyzer, inputs[1].index);
  const SnippetExtractor* extractors[] = {&first, &second};
  // A new thread, so its per-thread buffers start empty.
  std::thread thread([&] {
    for (size_t i = 0; i < 200; ++i) {
      for (size_t e = 0; e < 2; ++e) {
        const Input& in = inputs[e];
        const corpus::Document& doc = in.docs->Get(
            static_cast<DocId>((i * 7 + e) % in.docs->size()));
        ExpectMatchesOracle(*in.analyzer, *in.index, *extractors[e], 30, doc,
                            in.query);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  });
  thread.join();
}

// ------------------------------------------------------------ direct index

/// What the build recorded for `doc`: the title's kept ids and one id
/// per raw body token.
struct DirectRecord {
  std::vector<text::TermId> title;
  std::vector<text::TermId> body;
};

DirectRecord Record(const InvertedIndex& index, DocId doc) {
  DirectRecord r;
  index.DocumentTerms(doc, &r.title, &r.body);
  return r;
}

/// The record analysis implies: ForEachTokenId over the body (dropped
/// tokens as kInvalidTermId) and the title's kept ids.
DirectRecord Expected(const text::Analyzer& analyzer,
                      const corpus::Document& doc) {
  DirectRecord r;
  r.title = analyzer.AnalyzeReadOnly(doc.title);
  analyzer.ForEachTokenId(doc.body, [&](std::string_view, text::TermId id) {
    r.body.push_back(id);
  });
  return r;
}

TEST(DirectIndexTest, RecordsEveryTokenOfTheSmallTestbed) {
  pipeline::Testbed tb(pipeline::TestbedConfig::Small());
  for (const corpus::Document& doc : tb.corpus().store) {
    const DirectRecord got = Record(tb.index(), doc.id);
    const DirectRecord want = Expected(tb.analyzer(), doc);
    ASSERT_EQ(got.body, want.body) << "doc " << doc.id;
    ASSERT_EQ(got.title, want.title) << "doc " << doc.id;
  }
}

/// The index the way it used to be built: Analyze the title and the
/// body, merge, and aggregate each document's tfs in a std::map.
struct ReferenceIndex {
  std::vector<std::vector<Posting>> postings;
  std::vector<uint64_t> collection_freq;
  std::vector<uint32_t> doc_lengths;
  uint64_t total_tokens = 0;
};

ReferenceIndex BuildReference(const corpus::DocumentStore& store,
                              text::Analyzer* analyzer) {
  ReferenceIndex ref;
  ref.doc_lengths.resize(store.size(), 0);
  for (const corpus::Document& doc : store) {
    std::vector<text::TermId> terms = analyzer->Analyze(doc.title);
    std::vector<text::TermId> body_terms = analyzer->Analyze(doc.body);
    terms.insert(terms.end(), body_terms.begin(), body_terms.end());
    ref.doc_lengths[doc.id] = static_cast<uint32_t>(terms.size());
    ref.total_tokens += terms.size();
    std::map<text::TermId, uint32_t> tfs;
    for (text::TermId t : terms) ++tfs[t];
    for (const auto& [term, tf] : tfs) {
      if (ref.postings.size() <= term) {
        ref.postings.resize(term + 1);
        ref.collection_freq.resize(term + 1, 0);
      }
      ref.postings[term].push_back(Posting{doc.id, tf});
      ref.collection_freq[term] += tf;
    }
  }
  return ref;
}

TEST(DirectIndexTest, PostingsAndStatisticsMatchThePerDocumentMapBuild) {
  pipeline::Testbed tb(pipeline::TestbedConfig::Small());
  const corpus::DocumentStore& store = tb.corpus().store;
  text::Analyzer ref_analyzer;
  const ReferenceIndex ref = BuildReference(store, &ref_analyzer);
  text::Analyzer analyzer;
  const InvertedIndex index = InvertedIndex::Build(store, &analyzer);

  ASSERT_EQ(analyzer.vocabulary().size(), ref_analyzer.vocabulary().size());
  for (text::TermId id = 0; id < analyzer.vocabulary().size(); ++id) {
    ASSERT_EQ(analyzer.vocabulary().term(id),
              ref_analyzer.vocabulary().term(id));
  }
  ASSERT_EQ(index.num_terms(), ref.postings.size());
  for (text::TermId term = 0; term < ref.postings.size(); ++term) {
    const std::vector<Posting>& got = index.Postings(term);
    const std::vector<Posting>& want = ref.postings[term];
    ASSERT_EQ(got.size(), want.size()) << "term " << term;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].doc, want[i].doc) << "term " << term;
      ASSERT_EQ(got[i].tf, want[i].tf) << "term " << term;
    }
    EXPECT_EQ(got.capacity(), want.size()) << "term " << term;
    ASSERT_EQ(index.DocFrequency(term), want.size());
    ASSERT_EQ(index.CollectionFrequency(term), ref.collection_freq[term]);
  }
  ASSERT_EQ(index.num_docs(), ref.doc_lengths.size());
  for (DocId doc = 0; doc < ref.doc_lengths.size(); ++doc) {
    ASSERT_EQ(index.DocLength(doc), ref.doc_lengths[doc]) << "doc " << doc;
  }
  EXPECT_EQ(index.total_tokens(), ref.total_tokens);
  EXPECT_EQ(Bits(index.average_doc_length()),
            Bits(static_cast<double>(ref.total_tokens) /
                 static_cast<double>(ref.doc_lengths.size())));
}

size_t VarintBytes(uint32_t value) {
  size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

TEST(DirectIndexTest, VarintEdgeCases) {
  corpus::DocumentStore store;
  // 20000 distinct terms with stopwords between them: ids (+ 1) need
  // one, two and three varint bytes, and dropped tokens store a 0.
  std::string wide;
  for (int i = 0; i < 20000; ++i) wide += "w" + std::to_string(i) + " the ";
  store.Add("u0", "wide body", wide);
  store.Add("u1", "empty body", "");
  store.Add("u2", "the of and", "stopword only title w19999");
  // Over-long tokens are truncated to the tokenizer's 64 characters, so
  // two tokens that differ only past that point share one id.
  const std::string prefix(64, 'q');
  store.Add("u3", prefix + "xx", "intro " + prefix + "yyy " + prefix + " w7");
  store.Add("u4", "", "");
  text::Analyzer analyzer;
  const InvertedIndex index = InvertedIndex::Build(store, &analyzer);

  size_t want_bytes = 0;
  text::TermId max_id = 0;
  for (const corpus::Document& doc : store) {
    const DirectRecord got = Record(index, doc.id);
    const DirectRecord want = Expected(analyzer, doc);
    ASSERT_EQ(got.body, want.body) << "doc " << doc.id;
    ASSERT_EQ(got.title, want.title) << "doc " << doc.id;
    want_bytes += VarintBytes(static_cast<uint32_t>(want.title.size()));
    for (text::TermId id : want.title) want_bytes += VarintBytes(id + 1);
    for (text::TermId id : want.body) {
      want_bytes += VarintBytes(id == text::kInvalidTermId ? 0 : id + 1);
      if (id != text::kInvalidTermId) max_id = std::max(max_id, id);
    }
  }
  EXPECT_GE(max_id, 16384u);
  EXPECT_EQ(index.direct_bytes(), want_bytes);

  EXPECT_TRUE(Record(index, 1).body.empty());
  EXPECT_TRUE(Record(index, 2).title.empty());  // stopwords only
  const DirectRecord truncated = Record(index, 3);
  ASSERT_EQ(truncated.title.size(), 1u);
  ASSERT_EQ(truncated.body.size(), 4u);
  EXPECT_EQ(truncated.body[1], truncated.title[0]);
  EXPECT_EQ(truncated.body[2], truncated.title[0]);
  EXPECT_TRUE(Record(index, 4).title.empty());
  EXPECT_TRUE(Record(index, 4).body.empty());

  // Surrogates over these records still equal the two-pass path.
  SnippetExtractor extractor(&analyzer, &index);
  for (const char* query : {"w19999 w7", "wide", "stopword"}) {
    const std::vector<text::TermId> q = analyzer.AnalyzeReadOnly(query);
    for (const corpus::Document& doc : store) {
      ExpectMatchesOracle(analyzer, index, extractor, 30, doc, q);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace index
}  // namespace optselect
