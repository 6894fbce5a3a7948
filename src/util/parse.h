// Full-string, range-checked number parsing for command-line flags and
// environment variables. Unlike atoi/strtol, "abc", "12x", "" and
// out-of-range values are errors, never a silent 0 or a default.
#ifndef SRC_UTIL_PARSE_H_
#define SRC_UTIL_PARSE_H_

#include <charconv>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace whodunit::util {

// Parses all of `text` as a T — a base-10 integer, or for floating T a
// decimal or scientific number — and checks min <= value <= max.
// Returns nullopt on empty text, a sign on an unsigned T, trailing
// characters, overflow, NaN, or a value out of range.
template <typename T>
std::optional<T> ParseNumber(std::string_view text, T min, T max) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !(value >= min && value <= max)) {
    return std::nullopt;
  }
  return value;
}

// Prints "bad value '<text>' for <what>: want <want>" to stderr and
// exits with status 2 (a usage error).
[[noreturn]] void ExitBadValue(std::string_view what, std::string_view text,
                               const std::string& want);

// ParseNumber for a user-facing input named `what` (a flag or an
// environment variable); on failure ExitBadValue names it and the
// accepted range.
template <typename T>
T ParseNumberOrExit(std::string_view what, std::string_view text, T min, T max) {
  if (const std::optional<T> value = ParseNumber(text, min, max)) {
    return *value;
  }
  if constexpr (std::is_floating_point_v<T>) {
    char want[96];
    std::snprintf(want, sizeof(want), "a number in [%g, %g]", static_cast<double>(min),
                  static_cast<double>(max));
    ExitBadValue(what, text, want);
  } else {
    ExitBadValue(what, text,
                 "an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]");
  }
}

}  // namespace whodunit::util

#endif  // SRC_UTIL_PARSE_H_
