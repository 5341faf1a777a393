#include "util/string_util.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace gsv {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::optional<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  int64_t parsed = 0;
  const auto [stop, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error == std::errc() && stop == text.data() + text.size()) {
    return parsed;
  }
  if (error == std::errc::result_out_of_range) return std::nullopt;
  // Spellings from_chars refuses but strtoll takes ("+5", leading blanks).
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

std::optional<double> ParseDouble(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace gsv
