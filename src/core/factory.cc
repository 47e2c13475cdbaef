#include "core/factory.h"

#include "core/iaselect.h"
#include "core/mmr.h"
#include "core/optselect.h"
#include "core/parallel_optselect.h"
#include "core/xquad.h"
#include "util/strings.h"

namespace optselect {
namespace core {

std::vector<std::string> AvailableDiversifiers() {
  return {"optselect", "parallel-optselect", "xquad", "iaselect", "mmr"};
}

util::Result<std::unique_ptr<Diversifier>> MakeDiversifier(
    std::string_view name) {
  std::string lower = util::ToLower(name);
  if (lower == "optselect") {
    return std::unique_ptr<Diversifier>(new OptSelectDiversifier());
  }
  if (lower == "parallel-optselect") {
    return std::unique_ptr<Diversifier>(new ParallelOptSelectDiversifier());
  }
  if (lower == "xquad") {
    return std::unique_ptr<Diversifier>(new XQuadDiversifier());
  }
  if (lower == "iaselect") {
    return std::unique_ptr<Diversifier>(new IaSelectDiversifier());
  }
  if (lower == "mmr") {
    return std::unique_ptr<Diversifier>(new MmrDiversifier());
  }
  return util::Status::InvalidArgument("unknown diversifier: " +
                                       std::string(name));
}

}  // namespace core
}  // namespace optselect
