#include "util/string_util.h"

namespace foofah {

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!IsAsciiDigit(c)) return false;
  }
  return true;
}

bool AllAlpha(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!IsAsciiAlpha(c)) return false;
  }
  return true;
}

bool AllAlnum(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!IsAsciiAlnum(c)) return false;
  }
  return true;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool StringContainment(std::string_view a, std::string_view b) {
  if (a.size() >= b.size()) return Contains(a, b);
  return Contains(b, a);
}

std::pair<std::string, std::string> SplitFirst(std::string_view s,
                                               std::string_view delim) {
  if (delim.empty()) return {std::string(s), std::string()};
  size_t pos = s.find(delim);
  if (pos == std::string_view::npos) return {std::string(s), std::string()};
  return {std::string(s.substr(0, pos)),
          std::string(s.substr(pos + delim.size()))};
}

std::vector<std::string> SplitAll(std::string_view s, std::string_view delim) {
  std::vector<std::string> parts;
  if (delim.empty()) {
    parts.emplace_back(s);
    return parts;
  }
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + delim.size();
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsAsciiSpace(s[begin])) ++begin;
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return std::string(s.substr(begin, end - begin));
}

std::set<char> AlnumChars(std::string_view s) {
  std::set<char> out;
  for (char c : s) {
    if (IsAsciiAlnum(c)) out.insert(c);
  }
  return out;
}

std::set<char> SymbolChars(std::string_view s) {
  std::set<char> out;
  for (char c : s) {
    if (IsPrintableSymbol(c)) out.insert(c);
  }
  return out;
}

}  // namespace foofah
