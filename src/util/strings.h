// Small string helpers shared across the library (no locale dependence).

#ifndef OPTSELECT_UTIL_STRINGS_H_
#define OPTSELECT_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace optselect {
namespace util {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any whitespace run; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Canonical query text: ASCII-lowercased, leading/trailing whitespace
/// stripped, internal whitespace runs collapsed to single spaces.
/// "  Apple  IPhone " and "apple iphone" normalize identically. Used
/// wherever query strings are map keys (diversification store, serving
/// result cache) so lookups are insensitive to casing and spacing.
std::string NormalizeQueryText(std::string_view raw);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Human-readable byte count in binary units ("512 B", "2.0 KiB",
/// "1.5 GiB").
std::string FormatBytes(uint64_t bytes);

}  // namespace util
}  // namespace optselect

#endif  // OPTSELECT_UTIL_STRINGS_H_
