// Exporters for the telemetry registry and trace buffer:
//  * format_text    — human-readable summary (examples, bench footers)
//  * metrics_json   — machine-readable metrics (BENCH_*.json trajectories)
//  * chrome_trace_json — Chrome trace_event format; load the file in
//    chrome://tracing or https://ui.perfetto.dev to see per-worker task
//    timelines under supervisor scatter/gather spans.
#pragma once

#include <string>
#include <string_view>

#include "omx/obs/profile.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"

namespace omx::obs {

std::string format_text(const Snapshot& snap);
std::string metrics_json(const Snapshot& snap);
std::string chrome_trace_json(const TraceBuffer& buffer);

/// Aggregated span profile as an indented tree: one line per call-path
/// node with count, total/self time, and p50/p90/p99.
std::string profile_text(const Profile& profile);
/// Same data as JSON: {"wall_ns": ..., "nodes": [{...}]} with nodes in
/// depth-first order (each node directly follows its parent).
std::string profile_json(const Profile& profile);

/// The buffer's step events (the flight-recorder log) as JSON:
/// {"dropped": N, "capacity_per_thread": C, "events": [{"kind", "method",
/// "t", "h", "err", "order", "lane", "tid", "when_ns"}]}, events
/// time-sorted.
std::string recorder_json(const TraceBuffer& buffer);

/// JSON string escaping for callers composing their own documents.
std::string json_escape(std::string_view s);

/// Strict validation through support::json::parse (RFC 8259, no
/// trailing garbage, up to 1024 levels of nesting). Used by tests to
/// round-trip exporter output without an external JSON dependency.
bool validate_json(std::string_view text);

/// Writes `content` to `path`; returns false on I/O failure.
bool write_file(const std::string& path, std::string_view content);

}  // namespace omx::obs
