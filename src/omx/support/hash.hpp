// Content hashes for cache keys: the native backend's kernel file stems
// and the daemon's model keys.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace omx::support {

/// 64-bit FNV-1a of `s`.
inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// `v` as 16 zero-padded lowercase hex digits.
inline std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace omx::support
