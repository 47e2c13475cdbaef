#include "inputs.h"

#include <cctype>
#include <cmath>
#include <unordered_set>

#include "querylog/synthetic_log.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using optselect::querylog::PopularityMap;
using optselect::querylog::QueryLog;
using optselect::querylog::QueryRecord;

// One independent stream per input kind, so changing one workload
// constant (say the tail share) never shifts another stream.
enum Stream : uint64_t { kArrivals = 1, kMix, kTail, kLog };

optselect::util::Rng StreamRng(uint64_t seed, Stream stream) {
  return optselect::util::Rng(seed * 0x9E3779B97F4A7C15ull + stream);
}

std::vector<std::string> Mix(const TrafficSpec& spec,
                             const InputSource& source, uint64_t seed,
                             size_t n) {
  optselect::util::Rng rng = StreamRng(seed, kMix);
  if (spec.mix == MixKind::kLogZipf) {
    return optselect::querylog::ZipfQueryMix(*source.popularity, n, 1.0,
                                             &rng);
  }
  // Rank the stored keys by their log frequency: the popular ambiguous
  // queries get the popular Zipf ranks.
  PopularityMap stored;
  for (const std::string& key : source.stored_keys) {
    uint64_t f = source.popularity->Frequency(key);
    stored.Increment(key, f > 0 ? f : 1);
  }
  return optselect::querylog::ZipfQueryMix(stored, n, 1.0, &rng);
}

void ReplaceTail(const TrafficSpec& spec, const InputSource& source,
                 uint64_t seed, std::vector<std::string>* queries) {
  if (spec.tail_share <= 0.0 || source.vocabulary.size() < 2) return;
  optselect::util::Rng rng = StreamRng(seed, kTail);
  std::unordered_set<std::string> used;
  const size_t v = source.vocabulary.size();
  for (std::string& q : *queries) {
    if (!rng.Bernoulli(spec.tail_share)) continue;
    // Never repeated within the run and never a logged query, so every
    // tail request is a cache miss and a store passthrough.
    while (true) {
      const std::string& a = source.vocabulary[rng.Uniform(v)];
      const std::string& b = source.vocabulary[rng.Uniform(v)];
      if (a == b) continue;
      std::string candidate = a + " " + b;
      if (source.popularity->Frequency(candidate) > 0) continue;
      if (!used.insert(candidate).second) continue;
      q = std::move(candidate);
      break;
    }
  }
}

std::vector<QueryLog> Chunks(const TrafficSpec& spec,
                             const InputSource& source, uint64_t seed) {
  std::vector<QueryLog> chunks;
  if (spec.chunks == 0) return chunks;
  optselect::querylog::SyntheticLogConfig config;
  config.seed = StreamRng(seed, kLog).Next();
  config.num_users = 500;
  config.start_timestamp = source.log_end_timestamp + 3600;
  // About a third of the sessions are ambiguous. A log too short to hold
  // one per chunk is generated again, twice as long, so that every seed
  // gets all its ticks.
  constexpr size_t kMaxSessions = size_t{1} << 20;
  for (config.num_sessions = spec.chunks * 5 + 20;
       chunks.size() < spec.chunks && config.num_sessions <= kMaxSessions;
       config.num_sessions *= 2) {
    chunks.clear();
    optselect::querylog::SyntheticLogResult second =
        optselect::querylog::SyntheticLogGenerator(config).Generate(
            source.universe->topics, source.universe->noise_queries);
    // A session's records are consecutive, by one user, on one topic.
    const std::vector<QueryRecord>& records = second.log.records();
    for (size_t i = 0; i < records.size() && chunks.size() < spec.chunks;) {
      const int32_t topic = second.record_topic[i];
      size_t end = i + 1;
      while (end < records.size() && second.record_topic[end] == topic &&
             records[end].user == records[i].user) {
        ++end;
      }
      if (topic >= 0) {
        QueryLog chunk;
        for (size_t k = i; k < end; ++k) chunk.Add(records[k]);
        chunks.push_back(std::move(chunk));
      }
      i = end;
    }
  }
  return chunks;
}

}  // namespace

WorkloadInputs MakeInputs(const TrafficSpec& spec, const InputSource& source,
                          uint64_t seed, double seconds) {
  WorkloadInputs in;
  optselect::util::Rng arrivals = StreamRng(seed, kArrivals);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - arrivals.UniformDouble()) / spec.rate;
    if (t >= seconds) break;
    in.offsets_ns.push_back(static_cast<int64_t>(t * 1e9));
  }
  in.queries = Mix(spec, source, seed, in.offsets_ns.size());
  ReplaceTail(spec, source, seed, &in.queries);
  in.chunks = Chunks(spec, source, seed);
  return in;
}

std::string SerializeInputs(const WorkloadInputs& inputs) {
  std::string out;
  for (int64_t o : inputs.offsets_ns) out += std::to_string(o) + "\n";
  for (const std::string& q : inputs.queries) out += q + "\n";
  for (const QueryLog& chunk : inputs.chunks) {
    out += "--\n";
    for (const QueryRecord& r : chunk.records()) {
      out += r.query + "\t" + std::to_string(r.user) + "\t" +
             std::to_string(r.timestamp);
      for (auto d : r.results) out += " " + std::to_string(d);
      out += "\t";
      for (auto d : r.clicks) out += " " + std::to_string(d);
      out += "\n";
    }
  }
  return out;
}

double SingletonShare(const PopularityMap& popularity) {
  if (popularity.distinct() == 0) return 0.0;
  size_t once = 0;
  for (const auto& entry : popularity.counts()) {
    if (entry.second == 1) ++once;
  }
  return static_cast<double>(once) / static_cast<double>(popularity.distinct());
}

std::vector<std::string> CorpusVocabulary(
    const optselect::corpus::DocumentStore& documents, size_t max_words) {
  std::vector<std::string> words;
  std::unordered_set<std::string> seen;
  auto scan = [&](const std::string& text) {
    std::string word;
    for (size_t i = 0; i <= text.size(); ++i) {
      char c = i < text.size() ? text[i] : ' ';
      if (std::isalpha(static_cast<unsigned char>(c))) {
        word += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        continue;
      }
      if (word.size() >= 3 && seen.insert(word).second) words.push_back(word);
      word.clear();
    }
  };
  for (const auto& doc : documents) {
    if (words.size() >= max_words) break;
    scan(doc.title);
    scan(doc.body);
  }
  if (words.size() > max_words) words.resize(max_words);
  return words;
}

}  // namespace perfbench
