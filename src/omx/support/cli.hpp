// Strict integer parsing for command-line flags. std::atoi/std::atol read
// "abc" as 0, and a cast of a negative value to std::size_t wraps to a
// huge count; a tool that then starts that many threads takes the machine
// down. parse_int accepts only a whole decimal integer in [lo, hi].
#pragma once

#include <charconv>
#include <optional>
#include <string_view>

namespace omx::cli {

inline std::optional<long long> parse_int(std::string_view s, long long lo,
                                          long long hi) {
  long long v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace omx::cli
