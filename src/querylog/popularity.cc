#include "querylog/popularity.h"

#include <algorithm>
#include <utility>

#include "util/zipf.h"

namespace optselect {
namespace querylog {

PopularityMap::PopularityMap(const QueryLog& log) {
  for (const QueryRecord& r : log.records()) Increment(r.query);
}

uint64_t PopularityMap::Frequency(std::string_view query) const {
  auto it = counts_.find(std::string(query));
  return it == counts_.end() ? 0 : it->second;
}

void PopularityMap::Increment(std::string_view query, uint64_t by) {
  counts_[std::string(query)] += by;
  total_ += by;
}

std::vector<std::string> ZipfQueryMix(const PopularityMap& popularity,
                                      size_t num_requests, double skew,
                                      util::Rng* rng) {
  std::vector<std::pair<uint64_t, std::string>> by_freq;
  by_freq.reserve(popularity.counts().size());
  for (const auto& [query, freq] : popularity.counts()) {
    by_freq.emplace_back(freq, query);
  }
  std::sort(by_freq.begin(), by_freq.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  util::ZipfSampler sampler(by_freq.size(), skew);
  std::vector<std::string> mix;
  mix.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    mix.push_back(by_freq[sampler.Sample(rng)].second);
  }
  return mix;
}

}  // namespace querylog
}  // namespace optselect
