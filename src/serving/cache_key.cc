#include "serving/cache_key.h"

#include <cstdio>

#include "util/hash.h"
#include "util/strings.h"

namespace optselect {
namespace serving {

std::string NormalizeQuery(std::string_view raw) {
  return util::NormalizeQueryText(raw);
}

uint64_t ParamsFingerprint(const pipeline::PipelineParams& params) {
  uint64_t h = util::kFnv1aOffsetBasis;
  h = util::Fnv1a64Value(params.num_candidates, h);
  h = util::Fnv1a64Value(params.threshold_c, h);
  h = util::Fnv1a64Value(params.diversify.k, h);
  h = util::Fnv1a64Value(params.diversify.lambda, h);
  return h;
}

std::string MakeCacheKey(std::string_view normalized_query,
                         uint64_t params_fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(params_fingerprint));
  std::string key;
  key.reserve(normalized_query.size() + 17);
  key.append(normalized_query);
  key.push_back('\x1f');  // unit separator: cannot appear in a query
  key.append(hex);
  return key;
}

}  // namespace serving
}  // namespace optselect
