#ifndef SES_UTIL_STRING_UTIL_H_
#define SES_UTIL_STRING_UTIL_H_

/// \file
/// Small string helpers shared by the CSV layer, flag parser and reports.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ses::util {

/// Splits \p s on \p sep. Keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True iff \p s begins with \p prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict string->int64 parse (whole string must be consumed).
[[nodiscard]] Result<int64_t> ParseInt64(std::string_view s);

/// Strict string->double parse (whole string must be consumed).
[[nodiscard]] Result<double> ParseDouble(std::string_view s);

/// Strict string->bool parse; accepts true/false/1/0/yes/no (any case).
[[nodiscard]] Result<bool> ParseBool(std::string_view s);

/// Renders a count with thousands separators, e.g. 1234567 -> "1,234,567".
std::string WithThousandsSep(int64_t value);

}  // namespace ses::util

#endif  // SES_UTIL_STRING_UTIL_H_
