#ifndef FOOFAH_UTIL_STRING_UTIL_H_
#define FOOFAH_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace foofah {

/// Character-class helpers used by the pruning rules (§4.3) and parameter
/// enumeration. We deliberately use locale-independent ASCII definitions:
/// the paper's rules are phrased over "a-z, A-Z, 0-9" and "printable
/// non-alphanumeric symbols". They are inline because the search's
/// per-child scans call them once per character.
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
inline bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool IsAsciiAlnum(char c) { return IsAsciiDigit(c) || IsAsciiAlpha(c); }
inline bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
/// Printable, non-alphanumeric, non-space characters (candidate delimiters).
inline bool IsPrintableSymbol(char c) {
  return c > ' ' && c < 0x7f && !IsAsciiAlnum(c);
}

/// True when every character of `s` is an ASCII digit (and `s` nonempty).
bool AllDigits(std::string_view s);
/// True when every character of `s` is an ASCII letter (and `s` nonempty).
bool AllAlpha(std::string_view s);
/// True when every character of `s` is alphanumeric (and `s` nonempty).
bool AllAlnum(std::string_view s);

/// True when `needle` occurs in `haystack` (empty needle always matches).
bool Contains(std::string_view haystack, std::string_view needle);

/// True when one of the strings contains the other (the paper's "string
/// containment relationship" used by the TED Transform cost, §4.2.1).
bool StringContainment(std::string_view a, std::string_view b);

/// Splits `s` at the FIRST occurrence of `delim` into (left, right).
/// When `delim` is absent, returns (s, ""). This matches the paper's
/// leftSplit/rightSplit semantics (Appendix A, Split).
std::pair<std::string, std::string> SplitFirst(std::string_view s,
                                               std::string_view delim);

/// Splits `s` at EVERY occurrence of `delim`; never returns an empty vector.
std::vector<std::string> SplitAll(std::string_view s, std::string_view delim);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// The set of distinct alphanumeric characters in `s`.
std::set<char> AlnumChars(std::string_view s);
/// The set of distinct printable non-alphanumeric symbols in `s`.
std::set<char> SymbolChars(std::string_view s);

/// 64-bit FNV-1a, used to hash tables for search-state deduplication.
inline uint64_t Fnv1aHash(std::string_view data,
                          uint64_t seed = 14695981039346656037ULL) {
  uint64_t hash = seed;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace foofah

#endif  // FOOFAH_UTIL_STRING_UTIL_H_
