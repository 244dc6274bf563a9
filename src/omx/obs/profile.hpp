// Span aggregation: folds the flat TraceBuffer event list into a
// hierarchical profile — per (call-path, name) node: call count, total
// wall time, self time (total minus child spans), and p50/p90/p99 of the
// span durations. Nesting is reconstructed per thread from interval
// containment (the buffer records "X" complete events, so a span's
// children are exactly the later-starting spans it encloses); identical
// call paths from different threads merge into one node.
//
// Its readers are examples/trace_explorer (--profile), the text and JSON
// exporters in obs/export.hpp, and the obs tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "omx/obs/trace.hpp"

namespace omx::obs {

struct ProfileNode {
  std::string name;
  int depth = 0;           // 0 = root span
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;   // total minus time in child spans
  std::int64_t p50_ns = 0;    // exact percentiles over span durations
  std::int64_t p90_ns = 0;
  std::int64_t p99_ns = 0;
};

/// Aggregated profile in depth-first order (each node directly follows
/// its parent), roots sorted by total time descending.
struct Profile {
  std::vector<ProfileNode> nodes;
  std::int64_t wall_ns = 0;  // max span end across all threads
};

Profile aggregate_profile(const std::vector<TraceEvent>& events);

inline Profile aggregate_profile(const TraceBuffer& buffer) {
  return aggregate_profile(buffer.events());
}

}  // namespace omx::obs
