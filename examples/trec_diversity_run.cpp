// End-to-end TREC-style diversity run over the synthetic testbed:
// build everything (log → mining → index), diversify each topic's query
// with a chosen algorithm, and report α-NDCG / IA-P against the
// subtopic-level qrels — a single-command miniature of the paper's
// Section 5 evaluation.
//
//   $ ./examples/trec_diversity_run [--algo optselect|xquad|iaselect|mmr]
//                                   [--topics N] [--c F] [--lambda F]

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/factory.h"
#include "eval/diversity_evaluator.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "util/table_printer.h"

using namespace optselect;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  std::string algo_name = "optselect";
  size_t num_topics = 20;
  double threshold_c = 0.0;
  double lambda = 0.15;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--algo") == 0 && i + 1 < argc) {
      algo_name = argv[++i];
    } else if (std::strcmp(argv[i], "--topics") == 0 && i + 1 < argc) {
      num_topics = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--c") == 0 && i + 1 < argc) {
      threshold_c = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--lambda") == 0 && i + 1 < argc) {
      lambda = std::atof(argv[++i]);
    }
  }

  auto algo_result = core::MakeDiversifier(algo_name);
  if (!algo_result.ok()) {
    std::fprintf(stderr, "%s\n", algo_result.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<core::Diversifier> algo = std::move(algo_result).value();

  std::printf("Building the synthetic TREC-shaped testbed (%zu topics)...\n",
              num_topics);
  pipeline::TestbedConfig config = pipeline::TestbedConfig::TrecShaped();
  config.universe.num_topics = num_topics;
  pipeline::Testbed testbed(config);
  std::printf("  %zu documents indexed, %zu log records mined\n\n",
              testbed.corpus().store.size(),
              testbed.log_result().log.size());

  pipeline::PipelineParams params;
  params.num_candidates = 1000;
  params.threshold_c = threshold_c;
  params.diversify.k = 1000;
  params.diversify.lambda = lambda;
  pipeline::DiversificationPipeline pipe(&testbed, params);

  eval::Run baseline;
  baseline.name = "DPH baseline";
  eval::Run diversified;
  diversified.name = algo->name();

  size_t ambiguous = 0;
  for (const corpus::TrecTopic& topic : testbed.corpus().topics.topics()) {
    baseline.rankings[topic.id] =
        pipe.BaselineRanking(topic.query, params.diversify.k);
    pipeline::DiversifiedResult r = pipe.Run(topic.query, *algo);
    diversified.rankings[topic.id] = r.ranking;
    if (r.diversified) {
      ++ambiguous;
      if (ambiguous <= 3) {
        std::printf("topic %-12s -> %zu specializations:", topic.query.c_str(),
                    r.specializations.size());
        for (const auto& sp : r.specializations.items) {
          std::printf(" %s(%.2f)", sp.query.c_str(), sp.probability);
        }
        std::printf("\n");
      }
    }
  }
  std::printf("  ... %zu of %zu topics detected as ambiguous\n\n", ambiguous,
              testbed.corpus().topics.size());

  eval::DiversityEvaluator evaluator(&testbed.corpus().topics,
                                     &testbed.corpus().qrels);
  util::TablePrinter tp;
  tp.SetHeader({"run", "aN@5", "aN@10", "aN@20", "IA@5", "IA@10", "IA@20"});
  for (const eval::Run* run : {&baseline, &diversified}) {
    eval::MetricRow row = evaluator.Evaluate(*run);
    tp.AddRow({row.run_name, util::TablePrinter::Num(row.alpha_ndcg[5], 3),
               util::TablePrinter::Num(row.alpha_ndcg[10], 3),
               util::TablePrinter::Num(row.alpha_ndcg[20], 3),
               util::TablePrinter::Num(row.ia_precision[5], 3),
               util::TablePrinter::Num(row.ia_precision[10], 3),
               util::TablePrinter::Num(row.ia_precision[20], 3)});
  }
  std::printf("%s\n", tp.ToString().c_str());
  return 0;
}
