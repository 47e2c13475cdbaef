// Ablation A2: the relevance/diversity mixing parameter λ.
//
// The paper fixes λ = 0.15 for both OptSelect and xQuAD, citing the value
// that maximized α-NDCG@20 in Santos et al. [24]. This ablation sweeps λ
// over [0, 1] on the TREC-shaped testbed and reports α-NDCG@20 and
// IA-P@20, showing how sensitive each algorithm is to the mixture and
// where the testbed's own optimum lies.
//
// Usage: bench_ablation_lambda [--topics N] (default 25)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "eval/diversity_evaluator.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "util/table_printer.h"

namespace {
using namespace optselect;  // NOLINT(build/namespaces)
}  // namespace

int main(int argc, char** argv) {
  size_t num_topics = 25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topics") == 0 && i + 1 < argc) {
      num_topics = static_cast<size_t>(std::atoi(argv[++i]));
    }
  }

  pipeline::TestbedConfig config = pipeline::TestbedConfig::TrecShaped();
  config.universe.num_topics = num_topics;
  std::printf("Building testbed (%zu topics)...\n", num_topics);
  pipeline::Testbed testbed(config);

  pipeline::PipelineParams params;
  params.num_candidates = 1000;
  params.threshold_c = 0.0;
  params.diversify.k = 1000;
  pipeline::DiversificationPipeline pipe(&testbed, params);

  const corpus::TopicSet& topics = testbed.corpus().topics;
  eval::DiversityEvaluator::Options eopt;
  eopt.cutoffs = {20};
  eval::DiversityEvaluator evaluator(&topics, &testbed.corpus().qrels,
                                     eopt);

  // Prepare once; λ only affects selection.
  std::vector<pipeline::DiversifiedResult> prepared;
  for (const corpus::TrecTopic& topic : topics.topics()) {
    prepared.push_back(pipe.Prepare(topic.query));
  }

  const std::vector<double> lambdas = {0.0, 0.05, 0.15, 0.3,
                                       0.5, 0.7,  0.9,  1.0};
  const double threshold_c = 0.3;  // the sparsifying regime (see Table 3)
  // One fixed cutoff for the whole sweep — threshold once, in place,
  // instead of deep-copying every matrix per (λ, algorithm) pair.
  for (pipeline::DiversifiedResult& prep : prepared) {
    prep.utilities.ThresholdInPlace(threshold_c);
  }

  util::TablePrinter tp;
  tp.SetHeader({"lambda", "OptSelect aN@20", "OptSelect IA@20",
                "xQuAD aN@20", "xQuAD IA@20"});
  for (double lambda : lambdas) {
    std::vector<std::string> row{util::TablePrinter::Num(lambda, 2)};
    for (const char* name_cstr : {"optselect", "xquad"}) {
      const std::string name = name_cstr;
      std::unique_ptr<core::Diversifier> algo =
          std::move(core::MakeDiversifier(name)).value();
      core::DiversifyParams dp;
      dp.k = params.diversify.k;
      dp.lambda = lambda;
      eval::Run run;
      run.name = name;
      for (size_t t = 0; t < prepared.size(); ++t) {
        const pipeline::DiversifiedResult& prep = prepared[t];
        const corpus::TrecTopic& topic = topics.topic(t);
        if (!prep.specializations.ambiguous() ||
            prep.input.candidates.empty()) {
          run.rankings[topic.id] =
              pipeline::AssembleRanking(prep.input, {}, dp.k);
          continue;
        }
        run.rankings[topic.id] = pipeline::AssembleRanking(
            prep.input, algo->Select(prep.input, prep.utilities, dp),
            dp.k);
      }
      eval::MetricRow metrics = evaluator.Evaluate(run);
      row.push_back(util::TablePrinter::Num(metrics.alpha_ndcg[20], 3));
      row.push_back(util::TablePrinter::Num(metrics.ia_precision[20], 3));
    }
    tp.AddRow(std::move(row));
  }
  std::printf("\nLambda ablation (threshold c = 0.3, k = 1000, "
              "metrics @20):\n\n%s\n", tp.ToString().c_str());
  std::printf("Paper uses lambda = 0.15 for both algorithms.\n");
  return 0;
}
