#include "omx/support/config.hpp"

#include <cstdlib>
#include <sstream>
#include <string_view>

#include "omx/support/diagnostics.hpp"

namespace omx::config {

namespace {

// One row per knob. Adding an env read anywhere in the tree means adding
// a row here — the getters refuse undeclared names.
const std::vector<Knob>& table() {
  static const std::vector<Knob> t = {
      {"OMX_OBS_ENABLED", "bool", "true",
       "metrics registry on/off (counters, gauges, histograms)"},
      {"OMX_OBS_TRACE", "bool", "false",
       "arm trace spans in the global event store at process start"},
      {"OMX_OBS_RECORDER", "bool", "false",
       "arm solver step events (the flight recorder) in the global event "
       "store at process start; 65536 kept per thread, the rest counted"},
      {"OMX_NATIVE_CXX", "string", "auto-detect",
       "host C++ compiler for the native backend"},
      {"OMX_NATIVE_CACHE_DIR", "string", "<tmp>/omx-native-cache",
       "shared-object cache directory for compiled kernels"},
      {"OMX_NATIVE_DISABLE", "bool", "false",
       "force the interpreter fallback (skip native compilation)"},
      {"OMX_UPDATE_GOLDEN", "bool", "false",
       "tests only: rewrite the golden codegen snapshots instead of "
       "comparing"},
  };
  return t;
}

const Knob& lookup(const char* name) {
  for (const Knob& k : table()) {
    if (std::string_view(k.name) == name) {
      return k;
    }
  }
  const std::string err = std::string("undeclared config knob: ") + name +
                          " (add it to omx/support/config.cpp)";
  OMX_REQUIRE(false, err.c_str());
}

const char* raw(const char* name) {
  lookup(name);  // undeclared names are a programming error
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

}  // namespace

const std::vector<Knob>& knobs() { return table(); }

bool is_set(const char* name) { return raw(name) != nullptr; }

bool get_bool(const char* name, bool def) {
  const char* v = raw(name);
  if (v == nullptr) {
    return def;
  }
  const std::string_view s(v);
  return !(s == "0" || s == "false" || s == "off" || s == "no");
}

std::string get_string(const char* name, const std::string& def) {
  const char* v = raw(name);
  return v == nullptr ? def : std::string(v);
}

std::string describe() {
  std::ostringstream os;
  os << "OMX environment knobs (set in the environment; empty = unset):\n";
  for (const Knob& k : table()) {
    os << "  " << k.name << " (" << k.type << ", default " << k.default_text
       << ")\n      " << k.help << "\n";
    const char* v = std::getenv(k.name);
    if (v != nullptr) {
      os << "      currently: \"" << v << "\"\n";
    }
  }
  return os.str();
}

}  // namespace omx::config
