// Seed-only workload inputs.
//
// Everything a run sends to the program is generated here from the
// workload's constants and the --seed argument: the query mix, the
// Poisson arrival offsets, the never-repeated tail queries and the log
// chunks the refresh writer appends. The testbed is fixed (see
// workloads.cc), so the seed moves only the traffic, and the program
// only ever sees the generated queries and records.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/document_store.h"
#include "querylog/popularity.h"
#include "querylog/query_log.h"
#include "synth/topic_universe.h"

namespace perfbench {

/// The seed-independent facts the generator draws from (all taken from
/// the fixed testbed).
struct InputSource {
  /// Query frequencies of the initial log.
  const optselect::querylog::PopularityMap* popularity = nullptr;
  /// Normalized keys of the store, sorted.
  std::vector<std::string> stored_keys;
  /// Distinct corpus words in first-seen order (tail queries).
  std::vector<std::string> vocabulary;
  /// Topics and noise queries the second synthetic log is drawn over.
  const optselect::synth::TopicUniverse* universe = nullptr;
  /// Last timestamp of the initial log; appended records come after it.
  int64_t log_end_timestamp = 0;
};

enum class MixKind {
  kStoredZipf,  ///< Zipf(1.0) over the stored ambiguous queries
  kLogZipf,     ///< the log's own popularity Zipf (querylog::ZipfQueryMix)
};

/// The traffic constants of one workload.
struct TrafficSpec {
  MixKind mix = MixKind::kStoredZipf;
  double rate = 1000.0;      ///< Poisson arrivals per second
  double tail_share = 0.0;   ///< share replaced by never-repeated queries
  /// Log chunks appended by the writer: each holds the records of one
  /// ambiguous session of a second synthetic log, so a tick re-mines
  /// about one stored entry.
  size_t chunks = 0;
};

struct WorkloadInputs {
  /// Arrival offsets from the start of the measured phase, ascending.
  std::vector<int64_t> offsets_ns;
  /// The query sent at each arrival (raw; the program normalizes).
  std::vector<std::string> queries;
  /// Log chunks in append order.
  std::vector<optselect::querylog::QueryLog> chunks;
};

/// Generates the inputs of a `seconds`-long phase. Deterministic in
/// (spec, source, seed).
WorkloadInputs MakeInputs(const TrafficSpec& spec, const InputSource& source,
                          uint64_t seed, double seconds);

/// Byte form of `inputs` (offsets, queries, chunk records), for
/// determinism checks.
std::string SerializeInputs(const WorkloadInputs& inputs);

/// Share of the distinct queries of `popularity` that were submitted
/// exactly once; 0 for an empty map.
double SingletonShare(const optselect::querylog::PopularityMap& popularity);

/// Up to `max_words` distinct lowercase alphabetic words (length >= 3)
/// of the documents' titles and bodies, in first-seen order.
std::vector<std::string> CorpusVocabulary(
    const optselect::corpus::DocumentStore& documents, size_t max_words);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
