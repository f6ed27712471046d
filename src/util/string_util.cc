#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ses::util {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::ParseError("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: " + buf);
  }
  if (end == nullptr || *end != '\0') {
    return Status::ParseError("not an integer: " + buf);
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::ParseError("empty double");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::ParseError("double out of range: " + buf);
  }
  if (end == nullptr || *end != '\0') {
    return Status::ParseError("not a double: " + buf);
  }
  return value;
}

Result<bool> ParseBool(std::string_view s) {
  const std::string lower = ToLower(Trim(s));
  if (lower == "true" || lower == "1" || lower == "yes") return true;
  if (lower == "false" || lower == "0" || lower == "no") return false;
  return Status::ParseError("not a bool: " + lower);
}

std::string WithThousandsSep(int64_t value) {
  const bool negative = value < 0;
  uint64_t magnitude =
      negative ? (~static_cast<uint64_t>(value) + 1) : static_cast<uint64_t>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  const size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  out.append(digits, 0, first_group);
  for (size_t i = first_group; i < digits.size(); i += 3) {
    out.push_back(',');
    out.append(digits, i, 3);
  }
  if (negative) out.insert(out.begin(), '-');
  return out;
}

}  // namespace ses::util
