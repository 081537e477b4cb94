// Strict numeric flag values for the command-line tools. A value is the
// whole token: no leading '+' or whitespace, no trailing characters, in range
// of the target type, and — for reals — finite.
#pragma once

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace cohls::cli {

/// `token` as a T (an integer or floating-point type), or nullopt when any
/// part of it is not a number of that type. Unsigned T rejects a sign.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return std::nullopt;
    }
  }
  return value;
}

/// The value of flag argv[i] as a T no less than `min`, advancing i past it.
/// A missing, malformed or too small value calls `usage`, which prints the
/// usage text and exits.
template <class T>
[[nodiscard]] T flag_value(int argc, char** argv, int& i, void (*usage)(const char*),
                           T min = std::numeric_limits<T>::lowest()) {
  if (i + 1 >= argc) {
    usage(argv[0]);
  }
  const std::optional<T> value = parse_number<T>(argv[i + 1]);
  if (!value.has_value()) {
    std::cerr << "invalid value for " << argv[i] << ": '" << argv[i + 1] << "'\n";
    usage(argv[0]);
  }
  if (*value < min) {
    std::cerr << argv[i] << " must be at least " << min << ", got " << *value << "\n";
    usage(argv[0]);
  }
  ++i;
  return value.value();
}

}  // namespace cohls::cli
