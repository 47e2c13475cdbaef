// Reproduces Figure 1 and the Appendix C utility evaluation: "Average
// utility per number of specializations referring to the AOL and MSN
// query logs".
//
// Protocol (Appendix C): split each log 70/30 chronologically; train the
// mining stack on the first part; for every ambiguous query detected in
// the test part, retrieve |R_q| = 200 results from the black-box engine
// (the paper used Yahoo! BOSS; here the DPH engine over the synthetic
// corpus stands in), diversify with OptSelect (|R_q′| = k = 20), and
// report the ratio
//      Σ_{d ∈ S} Ũ(d|q)  /  Σ_{d ∈ top-k(R_q)} Ũ(d|q)
// bucketed by the number of mined specializations |S_q|. The paper
// observes ratios of ~5–10; the shape this reproduction verifies is a
// mean ratio well above 1 on both logs (see "Figure 1: why the ratio is
// smaller than the paper's" in docs/BENCH.md for why the magnitude is
// smaller against our synthetic engine substitute).
//
// Usage: bench_figure1_utility [--topics N]

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/optselect.h"
#include "corpus/synthetic_corpus.h"
#include "index/inverted_index.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "pipeline/diversification_pipeline.h"
#include "querylog/query_flow_graph.h"
#include "querylog/session_segmenter.h"
#include "querylog/synthetic_log.h"
#include "recommend/ambiguity_detector.h"
#include "recommend/shortcuts_recommender.h"
#include "synth/topic_universe.h"
#include "text/analyzer.h"
#include "util/table_printer.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

// List utility "as in Definition 2" (Appendix C): the normalized
// utilities Ũ(d|R_q′) summed over the list's documents and the mined
// specializations. Definition 2 is per-specialization and carries no
// popularity weighting, so covering more interpretations grows the sum —
// the mechanism behind Figure 1's upward trend in |S_q|.
double ListUtility(const core::DiversificationInput& input,
                   const core::UtilityMatrix& utilities,
                   const std::vector<size_t>& members) {
  double total = 0.0;
  for (size_t i : members) {
    for (size_t j = 0; j < input.specializations.size(); ++j) {
      total += utilities.At(i, j);
    }
  }
  return total;
}

struct SeriesPoint {
  double ratio_sum = 0.0;
  size_t count = 0;
};

}  // namespace

int main(int argc, char** argv) {
  size_t num_topics = 120;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topics") == 0 && i + 1 < argc) {
      num_topics = static_cast<size_t>(std::atoi(argv[++i]));
    }
  }

  // Universe with a wide specialization range (the figure's x axis spans
  // 2..28 specializations).
  synth::TopicUniverseConfig ucfg;
  ucfg.num_topics = num_topics;
  ucfg.min_intents = 2;
  ucfg.max_intents = 28;
  ucfg.intent_zipf_skew = 0.8;
  synth::TopicUniverse universe = synth::GenerateTopicUniverse(ucfg, 300);

  corpus::SyntheticCorpusConfig ccfg;
  ccfg.docs_per_intent = 6;
  ccfg.proportional_cluster_size = true;
  ccfg.min_docs_per_intent = 3;
  // The engine being re-ranked is a relevance-only black box whose first
  // page for an ambiguous query is dominated by generic root-matching
  // pages (the situation that motivates diversification); utility-rich
  // intent pages sit deeper in the 200-result list.
  ccfg.confusable_docs_per_topic = 40;
  ccfg.background_docs = 2000;
  corpus::SyntheticCorpus corpus =
      corpus::GenerateSyntheticCorpus(ccfg, universe.topics);
  std::printf("Corpus: %zu documents, %zu topics (2..28 specializations)\n",
              corpus.store.size(), corpus.topics.size());

  text::Analyzer analyzer;
  index::InvertedIndex index =
      index::InvertedIndex::Build(corpus.store, &analyzer);
  index::Searcher searcher(&index, &analyzer);
  index::SnippetExtractor snippets(&analyzer, &index);

  // Appendix C parameters: |R_q| = 200, |R_q′| = k = 20.
  pipeline::PipelineParams params;
  params.num_candidates = 200;
  params.results_per_specialization = 20;
  // The deployed configuration zeroes the weak cross-intent similarity
  // floor that query-biased snippets share through the root term (the
  // threshold-c mechanism of Section 5).
  params.threshold_c = 0.3;
  params.diversify.k = 20;
  params.diversify.lambda = 1.0;  // list-utility comparison is λ-free

  core::OptSelectDiversifier optselect;
  util::TablePrinter tp;
  tp.SetHeader({"|Sq|", "AOL ratio", "AOL n", "MSN ratio", "MSN n"});

  std::map<std::string, std::map<size_t, SeriesPoint>> series;
  for (const auto& [log_name, log_config] :
       {std::pair<std::string, querylog::SyntheticLogConfig>{
            "AOL", querylog::AolLikeConfig()},
        {"MSN", querylog::MsnLikeConfig()}}) {
    querylog::SyntheticLogResult log_result =
        querylog::SyntheticLogGenerator(log_config)
            .Generate(universe.topics, universe.noise_queries);

    // 70/30 chronological split (Appendix C).
    querylog::QueryLog train, test;
    log_result.log.SplitChronological(0.7, &train, &test);

    querylog::QueryFlowGraph graph =
        querylog::QueryFlowGraph::Build(train, {});
    std::vector<querylog::Session> sessions =
        querylog::SessionSegmenter().Segment(train, &graph);
    recommend::ShortcutsRecommender recommender;
    recommender.Train(train, sessions);
    // A wide popularity filter (s = 100) keeps the tail specializations
    // of heavily faceted queries — the figure's x axis spans |S_q| up to
    // 28, which the default s = 10 would clip to the head.
    recommend::AmbiguityDetector::Options dopt;
    dopt.popularity_divisor = 100.0;
    dopt.max_candidates = 100;
    recommend::AmbiguityDetector detector(&recommender, dopt);

    pipeline::DiversificationPipeline pipe(&searcher, &snippets, &analyzer,
                                           &corpus.store, &detector, params);

    size_t evaluated = 0;
    for (const synth::TopicSpec& topic : universe.topics) {
      pipeline::DiversifiedResult prep = pipe.Prepare(topic.root_query);
      if (!prep.specializations.ambiguous() ||
          prep.input.candidates.empty()) {
        continue;
      }
      std::vector<size_t> picks =
          optselect.Select(prep.input, prep.utilities, params.diversify);

      // Baseline list: the engine's own top-k.
      std::vector<size_t> topk;
      for (size_t i = 0;
           i < std::min<size_t>(params.diversify.k,
                                prep.input.candidates.size());
           ++i) {
        topk.push_back(i);
      }

      double diversified = ListUtility(prep.input, prep.utilities, picks);
      double original = ListUtility(prep.input, prep.utilities, topk);
      if (original <= 0.0) continue;

      size_t bucket = prep.specializations.size();
      SeriesPoint& point = series[log_name][bucket];
      point.ratio_sum += diversified / original;
      point.count += 1;
      ++evaluated;
    }
    std::printf("%s-like log: %zu records, %zu ambiguous roots evaluated\n",
                log_name.c_str(), log_result.log.size(), evaluated);
  }

  // Merge bucket keys from both series.
  std::map<size_t, bool> buckets;
  for (const auto& [name, pts] : series) {
    for (const auto& [b, p] : pts) buckets[b] = true;
  }
  std::printf("\nFigure 1 reproduction: average utility ratio "
              "(diversified / original top-k) per |S_q|\n\n");
  double overall_sum = 0.0;
  size_t overall_n = 0;
  for (const auto& [bucket, unused] : buckets) {
    std::vector<std::string> row{std::to_string(bucket)};
    for (const char* name_cstr : {"AOL", "MSN"}) {
      const std::string name = name_cstr;
      auto it = series[name].find(bucket);
      if (it == series[name].end() || it->second.count == 0) {
        row.push_back("-");
        row.push_back("0");
      } else {
        double mean = it->second.ratio_sum / it->second.count;
        row.push_back(util::TablePrinter::Num(mean, 2));
        row.push_back(std::to_string(it->second.count));
        overall_sum += it->second.ratio_sum;
        overall_n += it->second.count;
      }
    }
    tp.AddRow(std::move(row));
  }
  std::printf("%s\n", tp.ToString().c_str());
  if (overall_n > 0) {
    std::printf("Overall mean ratio: %.2f over %zu query evaluations "
                "(paper: factors of ~5-10)\n",
                overall_sum / overall_n, overall_n);
  }
  return 0;
}
