// Construction of diversifiers by name.

#ifndef OPTSELECT_CORE_FACTORY_H_
#define OPTSELECT_CORE_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/diversifier.h"
#include "util/status.h"

namespace optselect {
namespace core {

/// Every name MakeDiversifier accepts (in lower case).
std::vector<std::string> AvailableDiversifiers();

/// Creates a diversifier by case-insensitive name (one of
/// AvailableDiversifiers()). Returns an error status for unknown names.
util::Result<std::unique_ptr<Diversifier>> MakeDiversifier(
    std::string_view name);

}  // namespace core
}  // namespace optselect

#endif  // OPTSELECT_CORE_FACTORY_H_
