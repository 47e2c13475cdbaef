#include "pipeline/testbed.h"

#include <future>

namespace optselect {
namespace pipeline {

TestbedConfig TestbedConfig::Small() {
  TestbedConfig c;
  c.universe.num_topics = 8;
  c.universe.min_intents = 3;
  c.universe.max_intents = 5;
  c.corpus.docs_per_intent = 12;
  c.corpus.proportional_cluster_size = true;
  c.corpus.distractor_docs_per_intent = 3;
  c.corpus.confusable_docs_per_topic = 6;
  c.corpus.background_docs = 300;
  c.log.num_users = 200;
  c.log.num_sessions = 3000;
  c.num_noise_queries = 80;
  return c;
}

TestbedConfig TestbedConfig::TrecShaped() {
  TestbedConfig c;
  c.universe.num_topics = 50;   // TREC 2009 diversity task: 50 topics
  c.universe.min_intents = 3;   // 3..8 subtopics per topic
  c.universe.max_intents = 8;
  c.corpus.docs_per_intent = 30;
  c.corpus.proportional_cluster_size = true;
  c.corpus.distractor_docs_per_intent = 15;
  c.corpus.confusable_docs_per_topic = 25;
  c.corpus.background_docs = 4000;
  c.log.num_users = 3000;
  c.log.num_sessions = 40000;
  c.num_noise_queries = 400;
  return c;
}

Testbed::Testbed(const TestbedConfig& config)
    : universe_(synth::GenerateTopicUniverse(config.universe,
                                             config.num_noise_queries)) {
  // The log side and the retrieval side share only the universe, which
  // both read, and each writes only its own members: the log side runs
  // on a second thread while this one builds the retrieval side. The
  // future joins it on every exit path (its destructor waits), and
  // get() rethrows what it threw.
  std::future<void> log_side = std::async(std::launch::async, [&] {
    log_result_ = querylog::SyntheticLogGenerator(config.log).Generate(
        universe_.topics, universe_.noise_queries);
    // Session model: QFG then segmentation (Section 3).
    qfg_ = std::make_unique<querylog::QueryFlowGraph>(
        querylog::QueryFlowGraph::Build(log_result_.log,
                                        querylog::QueryFlowGraph::Options{}));
    sessions_ = querylog::SessionSegmenter(config.segmenter)
                    .Segment(log_result_.log, qfg_.get());
    // Recommendation model + Algorithm 1.
    recommender_.Train(log_result_.log, sessions_);
    detector_ = std::make_unique<recommend::AmbiguityDetector>(
        &recommender_, config.detector);
  });

  // Retrieval stack.
  corpus_ = corpus::GenerateSyntheticCorpus(config.corpus, universe_.topics);
  index_ = std::make_unique<index::InvertedIndex>(
      index::InvertedIndex::Build(corpus_.store, &analyzer_));
  searcher_ = std::make_unique<index::Searcher>(index_.get(), &analyzer_);
  snippets_ =
      std::make_unique<index::SnippetExtractor>(&analyzer_, index_.get());
  log_side.get();
}

}  // namespace pipeline
}  // namespace optselect
