#include "corpus/synthetic_corpus.h"

#include <algorithm>
#include <string>
#include <vector>

#include "synth/word_bank.h"
#include "util/rng.h"
#include "util/strings.h"

namespace optselect {
namespace corpus {
namespace {

// Appends `word` plus a space to `body`.
void Put(std::string* body, const std::string& word) {
  body->append(word);
  body->push_back(' ');
}

/// The background vocabulary, spelled once per corpus: word i is
/// WordBank::Word(5000 + i). Offset 5000 keeps the background slice
/// disjoint from topical slices.
std::vector<std::string> BackgroundWords(size_t background_vocab) {
  std::vector<std::string> words;
  words.reserve(background_vocab);
  for (size_t i = 0; i < background_vocab; ++i) {
    words.push_back(synth::WordBank::Word(5000 + i));
  }
  return words;
}

/// One background word, drawn uniformly.
const std::string& BackgroundWord(util::Rng* rng,
                                  const std::vector<std::string>& words) {
  return words[rng->Uniform(words.size())];
}

size_t BodyLength(util::Rng* rng, const SyntheticCorpusConfig& cfg) {
  int64_t spread = static_cast<int64_t>(cfg.body_words_spread);
  int64_t len = static_cast<int64_t>(cfg.body_words_mean) +
                rng->UniformInt(-spread, spread);
  return static_cast<size_t>(std::max<int64_t>(len, 12));
}

}  // namespace

SyntheticCorpus GenerateSyntheticCorpus(
    const SyntheticCorpusConfig& config,
    const std::vector<synth::TopicSpec>& specs) {
  util::Rng rng(config.seed);
  const std::vector<std::string> background =
      BackgroundWords(config.background_vocab);
  SyntheticCorpus out;

  for (size_t t = 0; t < specs.size(); ++t) {
    const synth::TopicSpec& spec = specs[t];
    const TopicId topic_id = static_cast<TopicId>(t + 1);

    TrecTopic topic;
    topic.id = topic_id;
    topic.query = spec.root_query;

    std::vector<std::string> root_tokens =
        util::SplitWhitespace(spec.root_query);

    for (size_t s = 0; s < spec.intents.size(); ++s) {
      const synth::SubIntent& intent = spec.intents[s];
      Subtopic sub;
      sub.query = intent.query;
      sub.probability = intent.probability;
      sub.description = "Documents about \"" + intent.query + "\"";
      topic.subtopics.push_back(sub);

      std::vector<std::string> intent_tokens =
          util::SplitWhitespace(intent.query);

      // Pages of popular interpretations use the shared root term more
      // (think "apple" on Apple-Inc pages vs orchard pages); the rate
      // scales with m·P(q′|q), clamped to keep every cluster retrievable.
      double root_boost = static_cast<double>(spec.intents.size()) *
                          intent.probability;
      if (root_boost < 1.0) root_boost = 1.0;
      if (root_boost > 1.6) root_boost = 1.6;
      const double query_token_rate = 0.15 * root_boost;

      // Plant the relevant cluster for this sub-intent.
      size_t cluster_size = config.docs_per_intent;
      if (config.proportional_cluster_size) {
        cluster_size = std::max<size_t>(
            config.min_docs_per_intent,
            static_cast<size_t>(static_cast<double>(config.docs_per_intent) *
                                    static_cast<double>(spec.intents.size()) *
                                    intent.probability +
                                0.5));
      }
      size_t n_highly = static_cast<size_t>(
          config.highly_relevant_fraction *
          static_cast<double>(cluster_size));
      for (size_t d = 0; d < cluster_size; ++d) {
        std::string body;
        size_t len = BodyLength(&rng, config);
        body.reserve(len * 8);
        // Title: the specialization query itself plus a content word.
        std::string title = intent.query;
        if (!intent.content_words.empty()) {
          title += " " + intent.content_words[d % intent.content_words.size()];
        }
        for (size_t w = 0; w < len; ++w) {
          if (rng.Bernoulli(config.intent_word_fraction)) {
            // Topical word: mostly the intent's content words; query
            // tokens appear but stay rare so snippet vectors are
            // dominated by intent-specific vocabulary, not by the root
            // word every cluster of the topic shares.
            double which = rng.UniformDouble();
            if (which < query_token_rate && !intent_tokens.empty()) {
              Put(&body, intent_tokens[rng.Uniform(intent_tokens.size())]);
            } else if (!intent.content_words.empty()) {
              Put(&body,
                  intent.content_words[rng.Uniform(
                      intent.content_words.size())]);
            }
          } else {
            Put(&body, BackgroundWord(&rng, background));
          }
        }
        std::string url = util::StrFormat(
            "http://synth.example/t%u/s%zu/d%zu", topic_id, s, d);
        DocId doc = out.store.Add(std::move(url), title, body);
        int grade = d < n_highly ? 2 : 1;
        out.qrels.Add(topic_id, static_cast<uint32_t>(s), doc, grade);
      }
    }

    // Near-topic distractors: one small anti-cluster per sub-intent,
    // textually close to the specialization query (modifier-dense, rare
    // root mention) yet judged non-relevant. Their own content slice
    // makes them mutually similar, so they enter R_q′ and carry high
    // utility without relevance.
    for (size_t s = 0; s < spec.intents.size(); ++s) {
      const synth::SubIntent& intent = spec.intents[s];
      std::vector<std::string> intent_tokens =
          util::SplitWhitespace(intent.query);
      std::vector<std::string> noise_words;
      for (size_t w = 0; w < 6; ++w) {
        noise_words.push_back(synth::WordBank::Word(
            40000 + 11 * (topic_id * 31 + s) + w));
      }
      for (size_t d = 0; d < config.distractor_docs_per_intent; ++d) {
        std::string body;
        size_t len = BodyLength(&rng, config);
        for (size_t w = 0; w < len; ++w) {
          double x = rng.UniformDouble();
          if (x < 0.02 && !root_tokens.empty()) {
            Put(&body, root_tokens[rng.Uniform(root_tokens.size())]);
          } else if (x < 0.27 && intent_tokens.size() > 1) {
            // The modifier token (last token of the specialization),
            // keyword-stuffed the way near-topic spam pages are.
            Put(&body, intent_tokens.back());
          } else if (x < 0.57) {
            Put(&body, noise_words[rng.Uniform(noise_words.size())]);
          } else {
            Put(&body, BackgroundWord(&rng, background));
          }
        }
        // Spam-page pattern: the full specialization query in the title.
        std::string title =
            intent.query + " " + noise_words[d % noise_words.size()];
        std::string url = util::StrFormat(
            "http://synth.example/t%u/s%zu/dx%zu", topic_id, s, d);
        out.store.Add(std::move(url), title, body);
      }
    }

    // Confusable documents: mention the root word amid background text but
    // belong to no sub-intent (grade 0 — recorded implicitly by absence).
    for (size_t d = 0; d < config.confusable_docs_per_topic; ++d) {
      std::string body;
      size_t len = BodyLength(&rng, config);
      for (size_t w = 0; w < len; ++w) {
        if (rng.Bernoulli(0.08) && !root_tokens.empty()) {
          Put(&body, root_tokens[rng.Uniform(root_tokens.size())]);
        } else {
          Put(&body, BackgroundWord(&rng, background));
        }
      }
      std::string url =
          util::StrFormat("http://synth.example/t%u/conf/d%zu", topic_id, d);
      out.store.Add(std::move(url), spec.root_query + " miscellany", body);
    }

    out.topics.Add(std::move(topic));
  }

  // Pure background documents.
  for (size_t d = 0; d < config.background_docs; ++d) {
    std::string body;
    size_t len = BodyLength(&rng, config);
    for (size_t w = 0; w < len; ++w) {
      Put(&body, BackgroundWord(&rng, background));
    }
    std::string url = util::StrFormat("http://synth.example/bg/d%zu", d);
    out.store.Add(std::move(url), "background " + std::to_string(d), body);
  }

  return out;
}

}  // namespace corpus
}  // namespace optselect
