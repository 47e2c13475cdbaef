// Reproduces Table 3: "Values of α-NDCG, and IA-P for OptSelect, xQuAD,
// and IASelect by varying the threshold c" over the TREC-shaped synthetic
// testbed (50 topics, 3–8 subtopics, subtopic-level qrels).
//
// Setup mirrors Section 5: DPH baseline, |R_q′| = 20, k = 1000, λ = 0.15,
// α = 0.5, cutoffs {5, 10, 20, 100, 1000}, c ∈ {0, .05, .10, .15, .20,
// .25, .35, .50, .75}. The corpus is the synthetic ClueWeb-B stand-in, so
// absolute metric values differ from the paper; the shapes to verify:
//   (1) diversified runs beat the DPH baseline at early cutoffs,
//   (2) OptSelect and xQuAD are comparable, IASelect trails,
//   (3) large c degrades every method toward the baseline,
//   (4) differences between OptSelect and xQuAD are not significant
//       under the Wilcoxon signed-rank test at the 0.05 level.
//
// Usage: bench_table3_effectiveness [--topics N] (default: 50)

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "eval/diversity_evaluator.h"
#include "eval/wilcoxon.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "util/table_printer.h"

namespace {

using namespace optselect;           // NOLINT(build/namespaces)
using pipeline::DiversificationPipeline;
using pipeline::DiversifiedResult;
using pipeline::PipelineParams;
using pipeline::Testbed;
using pipeline::TestbedConfig;
using util::TablePrinter;

const std::vector<double> kThresholds = {0.0,  0.05, 0.10, 0.15, 0.20,
                                         0.25, 0.35, 0.50, 0.75};
const std::vector<size_t> kCutoffs = {5, 10, 20, 100, 1000};

std::vector<std::string> MetricCells(const eval::MetricRow& row) {
  std::vector<std::string> cells;
  for (size_t c : kCutoffs) {
    cells.push_back(TablePrinter::Num(row.alpha_ndcg.at(c), 3));
  }
  for (size_t c : kCutoffs) {
    cells.push_back(TablePrinter::Num(row.ia_precision.at(c), 3));
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_topics = 50;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topics") == 0 && i + 1 < argc) {
      num_topics = static_cast<size_t>(std::atoi(argv[++i]));
    }
  }

  TestbedConfig config = TestbedConfig::TrecShaped();
  config.universe.num_topics = num_topics;
  std::printf("Building TREC-shaped testbed (%zu topics)...\n", num_topics);
  Testbed testbed(config);
  std::printf("  corpus: %zu docs, log: %zu records, sessions: %zu\n\n",
              testbed.corpus().store.size(), testbed.log_result().log.size(),
              testbed.sessions().size());

  PipelineParams params;
  params.num_candidates = 2000;  // |R_q|: effectively every matching doc
  params.threshold_c = 0.0;      // raw utilities; c applied below
  params.diversify.k = 1000;
  params.diversify.lambda = 0.15;
  DiversificationPipeline pipe(&testbed, params);

  const corpus::TopicSet& topics = testbed.corpus().topics;
  const corpus::Qrels& qrels = testbed.corpus().qrels;
  eval::DiversityEvaluator::Options eopt;
  eopt.alpha = 0.5;
  eopt.cutoffs = kCutoffs;
  eval::DiversityEvaluator evaluator(&topics, &qrels, eopt);

  // Prepare each topic once (retrieval + mining + raw utilities).
  std::printf("Preparing %zu topics (retrieval + Algorithm 1 + utilities)"
              "...\n", topics.size());
  std::vector<DiversifiedResult> prepared;
  eval::Run baseline;
  baseline.name = "DPH Baseline";
  size_t detected = 0;
  for (const corpus::TrecTopic& topic : topics.topics()) {
    prepared.push_back(pipe.Prepare(topic.query));
    baseline.rankings[topic.id] =
        pipeline::AssembleRanking(prepared.back().input, {}, params.diversify.k);
    if (prepared.back().specializations.ambiguous()) ++detected;
  }
  std::printf("  ambiguous topics detected: %zu / %zu\n\n", detected,
              topics.size());

  TablePrinter tp;
  tp.SetHeader({"run", "c", "aN@5", "aN@10", "aN@20", "aN@100", "aN@1000",
                "IA@5", "IA@10", "IA@20", "IA@100", "IA@1000"});
  eval::MetricRow base_row = evaluator.Evaluate(baseline);
  {
    std::vector<std::string> cells{"DPH Baseline", "-"};
    for (const std::string& c : MetricCells(base_row)) cells.push_back(c);
    tp.AddRow(std::move(cells));
    tp.AddSeparator();
  }

  // For the significance check: remember per-topic α-NDCG@20 of OptSelect
  // and xQuAD at each threshold.
  std::map<double, std::map<std::string, std::vector<double>>> per_topic;

  for (const char* name_cstr : {"optselect", "xquad", "iaselect"}) {
    const std::string name = name_cstr;
    std::unique_ptr<core::Diversifier> algo =
        std::move(core::MakeDiversifier(name)).value();
    // kThresholds ascends, and thresholding is monotone in c, so one
    // working copy per topic sharpened in place replaces a deep copy
    // per (algorithm, threshold, topic) triple.
    std::vector<core::UtilityMatrix> work;
    work.reserve(prepared.size());
    for (const DiversifiedResult& prep : prepared) {
      work.push_back(prep.utilities);
    }
    for (double c : kThresholds) {
      eval::Run run;
      run.name = algo->name();
      for (size_t t = 0; t < prepared.size(); ++t) {
        const DiversifiedResult& prep = prepared[t];
        const corpus::TrecTopic& topic = topics.topic(t);
        if (!prep.specializations.ambiguous() ||
            prep.input.candidates.empty()) {
          run.rankings[topic.id] = baseline.rankings[topic.id];
          continue;
        }
        work[t].ThresholdInPlace(c);
        std::vector<size_t> picks =
            algo->Select(prep.input, work[t], params.diversify);
        run.rankings[topic.id] =
            pipeline::AssembleRanking(prep.input, picks, params.diversify.k);
      }
      eval::MetricRow row = evaluator.Evaluate(run);
      std::vector<std::string> cells{row.run_name,
                                     TablePrinter::Num(c, 2)};
      for (const std::string& cell : MetricCells(row)) cells.push_back(cell);
      tp.AddRow(std::move(cells));
      per_topic[c][name] = evaluator.PerTopicAlphaNdcg(run, 20);
    }
    tp.AddSeparator();
  }
  std::printf("%s\n", tp.ToString().c_str());

  // Wilcoxon signed-rank OptSelect vs xQuAD on per-topic α-NDCG@20 (the
  // paper reports no significant differences at the 0.05 level).
  std::printf("Wilcoxon signed-rank (OptSelect vs xQuAD, α-NDCG@20):\n");
  for (double c : kThresholds) {
    eval::WilcoxonResult w = eval::WilcoxonSignedRank(
        per_topic[c]["optselect"], per_topic[c]["xquad"]);
    std::printf("  c=%.2f  n=%2zu  W+=%7.1f  W-=%7.1f  p=%.4f  %s\n", c,
                w.n, w.w_plus, w.w_minus, w.p_value,
                w.Significant(0.05) ? "SIGNIFICANT" : "not significant");
  }
  return 0;
}
