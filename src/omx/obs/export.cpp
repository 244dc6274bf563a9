#include "omx/obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "omx/support/diagnostics.hpp"
#include "omx/support/json.hpp"

namespace omx::obs {

namespace {

/// Formats a double the way JSON expects (no inf/nan, no locale).
std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_text(const Snapshot& snap) {
  std::string out;
  char buf[160];
  if (!snap.counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, v] : snap.counters) {
      std::snprintf(buf, sizeof buf, "  %-32s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(v));
      out += buf;
    }
  }
  if (!snap.gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, v] : snap.gauges) {
      std::snprintf(buf, sizeof buf, "  %-32s %.6g\n", name.c_str(), v);
      out += buf;
    }
  }
  for (const auto& h : snap.histograms) {
    std::snprintf(buf, sizeof buf,
                  "histogram %s: count=%llu sum=%.6g p50=%.6g p99=%.6g\n",
                  h.name.c_str(),
                  static_cast<unsigned long long>(h.count), h.sum,
                  h.quantile(0.50), h.quantile(0.99));
    out += buf;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i < h.bounds.size()) {
        std::snprintf(buf, sizeof buf, "  le %-12.6g %llu\n", h.bounds[i],
                      static_cast<unsigned long long>(h.counts[i]));
      } else {
        std::snprintf(buf, sizeof buf, "  overflow     %llu\n",
                      static_cast<unsigned long long>(h.counts[i]));
      }
      out += buf;
    }
  }
  if (out.empty()) {
    out = "(no metrics registered)\n";
  }
  return out;
}

std::string metrics_json(const Snapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(v);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + json_number(v);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(h.name) + "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      out += (i ? ", " : "") + json_number(h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json_number(h.sum) +
           ", \"p50\": " + json_number(h.quantile(0.50)) +
           ", \"p90\": " + json_number(h.quantile(0.90)) +
           ", \"p99\": " + json_number(h.quantile(0.99)) + "}";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::string chrome_trace_json(const TraceBuffer& buffer) {
  const auto events = buffer.events();
  const auto names = buffer.thread_names();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  // Process-name metadata labels the whole row in Perfetto.
  const std::string pname = buffer.process_name();
  if (!pname.empty()) {
    out += "\n {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"" +
           json_escape(pname) + "\"}}";
    first = false;
  }
  // Thread-name metadata events give each worker its labeled track.
  for (const auto& [tid, name] : names) {
    out += first ? "\n" : ",\n";
    first = false;
    out += " {\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
           json_escape(name) + "\"}}";
  }
  for (const TraceEvent& ev : events) {
    out += first ? "\n" : ",\n";
    first = false;
    // trace_event timestamps are microseconds; keep ns resolution via
    // fractional values (both chrome://tracing and Perfetto accept them).
    out += " {\"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(ev.tid) +
           ", \"name\": \"" + json_escape(ev.name) + "\", \"cat\": \"" +
           json_escape(ev.category) +
           "\", \"ts\": " + json_number(ev.start_ns / 1e3) +
           ", \"dur\": " + json_number(ev.dur_ns / 1e3) + "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

namespace {

std::string fmt_ms(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

std::string profile_text(const Profile& profile) {
  if (profile.nodes.empty()) {
    return "(no spans recorded)\n";
  }
  std::string out;
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "%-40s %8s %10s %10s %9s %9s %9s\n", "span", "count",
                "total_ms", "self_ms", "p50_ms", "p90_ms", "p99_ms");
  out += buf;
  for (const ProfileNode& n : profile.nodes) {
    std::string label(static_cast<std::size_t>(n.depth) * 2, ' ');
    label += n.name;
    if (label.size() > 40) {
      label.resize(40);
    }
    std::snprintf(buf, sizeof buf,
                  "%-40s %8llu %10s %10s %9s %9s %9s\n", label.c_str(),
                  static_cast<unsigned long long>(n.count),
                  fmt_ms(n.total_ns).c_str(), fmt_ms(n.self_ns).c_str(),
                  fmt_ms(n.p50_ns).c_str(), fmt_ms(n.p90_ns).c_str(),
                  fmt_ms(n.p99_ns).c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "wall: %s ms\n",
                fmt_ms(profile.wall_ns).c_str());
  out += buf;
  return out;
}

std::string profile_json(const Profile& profile) {
  std::string out =
      "{\n  \"wall_ns\": " + std::to_string(profile.wall_ns) +
      ",\n  \"nodes\": [";
  bool first = true;
  for (const ProfileNode& n : profile.nodes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + json_escape(n.name) +
           "\", \"depth\": " + std::to_string(n.depth) +
           ", \"count\": " + std::to_string(n.count) +
           ", \"total_ns\": " + std::to_string(n.total_ns) +
           ", \"self_ns\": " + std::to_string(n.self_ns) +
           ", \"p50_ns\": " + std::to_string(n.p50_ns) +
           ", \"p90_ns\": " + std::to_string(n.p90_ns) +
           ", \"p99_ns\": " + std::to_string(n.p99_ns) + "}";
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

std::string recorder_json(const TraceBuffer& buffer) {
  std::string out =
      "{\n  \"dropped\": " + std::to_string(buffer.dropped()) +
      ",\n  \"capacity_per_thread\": " +
      std::to_string(buffer.step_capacity_per_thread()) +
      ",\n  \"events\": [";
  bool first = true;
  for (const StepEvent& ev : buffer.step_events()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kind\": \"" + std::string(to_string(ev.kind)) +
           "\", \"method\": \"" + json_escape(ev.method) +
           "\", \"t\": " + json_number(ev.t) +
           ", \"h\": " + json_number(ev.h) +
           ", \"err\": " + json_number(ev.err) +
           ", \"order\": " + std::to_string(ev.order) +
           ", \"lane\": " + std::to_string(ev.lane) +
           ", \"tid\": " + std::to_string(ev.tid) +
           ", \"when_ns\": " + std::to_string(ev.when_ns) + "}";
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

bool validate_json(std::string_view text) {
  // The exporters' documents nest a few levels; the cap only has to
  // stop a runaway recursion, not a hostile client.
  constexpr int kMaxDepth = 1024;
  try {
    support::json::parse(text, kMaxDepth);
    return true;
  } catch (const omx::Error&) {
    return false;
  }
}

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

}  // namespace omx::obs
