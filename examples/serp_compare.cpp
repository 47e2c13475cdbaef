// Side-by-side SERP comparison: one ambiguous query, four algorithms
// (OptSelect, xQuAD, IASelect, MMR) plus the DPH baseline, each result
// annotated with the subtopic(s) it is judged relevant to — making the
// diversification behaviour of each method visible at a glance.
//
//   $ ./examples/serp_compare [--query Q] [--k N]

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"

using namespace optselect;  // NOLINT(build/namespaces)

namespace {

// "12" / "-" / "1" — which subtopics of `topic` doc is relevant to.
std::string SubtopicTags(const pipeline::Testbed& testbed,
                         const corpus::TrecTopic& topic, DocId doc) {
  std::string tags;
  for (uint32_t s = 0; s < topic.subtopics.size(); ++s) {
    if (testbed.corpus().qrels.Relevant(topic.id, s, doc)) {
      tags += static_cast<char>('1' + (s % 9));
    }
  }
  return tags.empty() ? "-" : tags;
}

}  // namespace

int main(int argc, char** argv) {
  std::string query;
  size_t k = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--query") == 0 && i + 1 < argc) {
      query = argv[++i];
    } else if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      k = static_cast<size_t>(std::atoi(argv[++i]));
    }
  }

  std::printf("Building testbed...\n");
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  if (query.empty()) query = testbed.universe().topics[0].root_query;

  const corpus::TrecTopic* topic =
      testbed.corpus().topics.FindByQuery(query);
  if (topic == nullptr) {
    std::fprintf(stderr, "query '%s' is not a testbed topic; topics are:\n",
                 query.c_str());
    for (const auto& t : testbed.corpus().topics.topics()) {
      std::fprintf(stderr, "  %s\n", t.query.c_str());
    }
    return 1;
  }

  pipeline::PipelineParams params;
  params.num_candidates = 150;
  params.results_per_specialization = 10;
  params.threshold_c = 0.3;
  params.diversify.k = k;
  pipeline::DiversificationPipeline pipe(&testbed, params);

  std::printf("\nQuery \"%s\" — %zu planted subtopics:\n", query.c_str(),
              topic->subtopics.size());
  for (uint32_t s = 0; s < topic->subtopics.size(); ++s) {
    std::printf("  [%c] %-20s P = %.2f\n",
                static_cast<char>('1' + (s % 9)),
                topic->subtopics[s].query.c_str(),
                topic->subtopics[s].probability);
  }

  // Baseline SERP.
  std::printf("\n%-11s", "rank");
  std::printf("%-20s", "DPH");
  for (const std::string& name : core::AvailableDiversifiers()) {
    std::printf("%-20s", name.c_str());
  }
  std::printf("\n");

  std::vector<DocId> baseline = pipe.BaselineRanking(query, k);
  std::vector<std::vector<DocId>> serps;
  for (const std::string& name : core::AvailableDiversifiers()) {
    auto algo = std::move(core::MakeDiversifier(name)).value();
    serps.push_back(pipe.Run(query, *algo).ranking);
  }

  for (size_t rank = 0; rank < k; ++rank) {
    std::printf("%-11zu", rank + 1);
    if (rank < baseline.size()) {
      std::printf("%-20s",
                  SubtopicTags(testbed, *topic, baseline[rank]).c_str());
    } else {
      std::printf("%-20s", "");
    }
    for (const auto& serp : serps) {
      if (rank < serp.size()) {
        std::printf("%-20s",
                    SubtopicTags(testbed, *topic, serp[rank]).c_str());
      } else {
        std::printf("%-20s", "");
      }
    }
    std::printf("\n");
  }
  std::printf("\nCell = subtopics the result is relevant to "
              "('-' = not relevant to any).\n");
  return 0;
}
