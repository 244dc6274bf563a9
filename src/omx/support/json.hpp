// Minimal JSON reader for the service protocol (svc/protocol.hpp).
//
// The daemon's control payloads are small (~hundreds of bytes), arrive
// from untrusted clients, and need nothing beyond the six JSON types —
// so this is a strict recursive-descent parser over std::string_view
// with a hard depth cap, not a general-purpose JSON library. Output is
// composed by hand with obs::json_escape, as everywhere else in the
// repo; only parsing lives here.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace omx::support::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Typed accessors with defaults — the idiom for optional protocol
  /// fields: req.get_number("workers", 1.0). Throws omx::Error when the
  /// member exists but has the wrong type (a malformed request, not a
  /// missing option).
  double get_number(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
};

/// Parses one JSON document (RFC 8259 grammar); throws omx::Error on any
/// syntax error, trailing garbage, a number outside the double range, or
/// nesting deeper than `max_depth` levels. The protocol's 32 levels keep
/// attacker-controlled recursion far from the stack guard.
Value parse(std::string_view text, int max_depth = 32);

}  // namespace omx::support::json
