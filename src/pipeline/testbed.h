// End-to-end synthetic testbed assembly.
//
// Wires together every substrate exactly the way the paper's experimental
// setup does (Section 5 + Appendices B/C). The two sides share only the
// planted universe, so they are built at once:
//
//                            ┌─ retrieval side (the constructing thread)
//                            │  synthetic corpus + TREC topics + qrels
//   planted topic universe ──┤  corpus ─> analyzer ─> inverted index
//                            │    (chunk-parallel) ─> DPH searcher ─> snippets
//                            │
//                            └─ log side (a second thread)
//                               synthetic query log (AOL- or MSN-like)
//                               query log ─> query-flow graph
//                                 ─> logical sessions ─> recommender
//                               recommender + popularity
//                                 ─> ambiguity detector (Algorithm 1)
//
// A Testbed owns all of these and hands out the pieces the experiments
// need. Every piece is the same, byte for byte, whatever the number of
// CPUs it was built on.

#ifndef OPTSELECT_PIPELINE_TESTBED_H_
#define OPTSELECT_PIPELINE_TESTBED_H_

#include <memory>
#include <vector>

#include "corpus/synthetic_corpus.h"
#include "index/inverted_index.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "querylog/query_flow_graph.h"
#include "querylog/session_segmenter.h"
#include "querylog/synthetic_log.h"
#include "recommend/ambiguity_detector.h"
#include "recommend/shortcuts_recommender.h"
#include "synth/topic_universe.h"
#include "text/analyzer.h"

namespace optselect {
namespace pipeline {

/// Testbed construction knobs; forwards to the component configs.
struct TestbedConfig {
  synth::TopicUniverseConfig universe;
  corpus::SyntheticCorpusConfig corpus;
  querylog::SyntheticLogConfig log;
  size_t num_noise_queries = 400;
  recommend::AmbiguityDetector::Options detector;
  querylog::SessionSegmenter::Options segmenter;

  /// Small preset that builds in well under a second (unit tests).
  static TestbedConfig Small();
  /// The TREC-shaped preset used by the Table 3 experiment.
  static TestbedConfig TrecShaped();
};

/// Owns the fully wired pipeline.
class Testbed {
 public:
  /// Builds everything, the log side on a second thread beside the
  /// retrieval side; deterministic in the config seeds.
  explicit Testbed(const TestbedConfig& config);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  const synth::TopicUniverse& universe() const { return universe_; }
  const corpus::SyntheticCorpus& corpus() const { return corpus_; }
  const querylog::SyntheticLogResult& log_result() const {
    return log_result_;
  }
  const querylog::QueryFlowGraph& flow_graph() const { return *qfg_; }
  const std::vector<querylog::Session>& sessions() const { return sessions_; }
  const recommend::ShortcutsRecommender& recommender() const {
    return recommender_;
  }
  const recommend::AmbiguityDetector& detector() const { return *detector_; }
  text::Analyzer& analyzer() { return analyzer_; }
  const text::Analyzer& analyzer() const { return analyzer_; }
  const index::InvertedIndex& index() const { return *index_; }
  const index::Searcher& searcher() const { return *searcher_; }
  const index::SnippetExtractor& snippets() const { return *snippets_; }

 private:
  synth::TopicUniverse universe_;
  corpus::SyntheticCorpus corpus_;
  querylog::SyntheticLogResult log_result_;
  std::unique_ptr<querylog::QueryFlowGraph> qfg_;
  std::vector<querylog::Session> sessions_;
  recommend::ShortcutsRecommender recommender_;
  std::unique_ptr<recommend::AmbiguityDetector> detector_;
  text::Analyzer analyzer_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::unique_ptr<index::Searcher> searcher_;
  std::unique_ptr<index::SnippetExtractor> snippets_;
};

}  // namespace pipeline
}  // namespace optselect

#endif  // OPTSELECT_PIPELINE_TESTBED_H_
