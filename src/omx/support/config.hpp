// Central registry for every OMX_* environment knob.
//
// Subsystems used to call std::getenv ad hoc, each with its own parsing
// quirks; this helper gives them one place to (a) declare the knob with
// a type, default and help line, and (b) read it through typed getters
// with uniform parsing:
//
//   bool:   unset or empty -> default; "0"/"false"/"off"/"no" -> false;
//           anything else -> true
//   string: unset or empty -> default
//
// Getters OMX_REQUIRE the knob to be declared in the registry table
// (config.cpp), so a new env read can't bypass the registry silently.
// `describe()` renders a --help-style dump (name, type, default, help,
// current value) used by `trace_explorer --config`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace omx::config {

struct Knob {
  const char* name;          // e.g. "OMX_NATIVE_CXX"
  const char* type;          // "bool" | "string"
  const char* default_text;  // human-readable default
  const char* help;          // one-line description
};

/// The full knob table, in display order.
const std::vector<Knob>& knobs();

/// True when the variable is set to a non-empty value.
bool is_set(const char* name);

bool get_bool(const char* name, bool def);
std::string get_string(const char* name, const std::string& def);

/// --help-style dump of every knob with its current value.
std::string describe();

}  // namespace omx::config
