// Phase/span tracing: nested timed regions with thread identity, suitable
// for Chrome trace_event ("X" complete events) export — per-worker RHS
// task timelines, supervisor scatter/gather, compile pipeline phases.
//
// Recording is off by default and costs one relaxed load per span while
// off; TraceBuffer::start() (or the OMX_OBS_TRACE=1 environment variable)
// turns it on. Span construction while a trace is active captures the
// start time; destruction appends one event under a mutex — acceptable
// because the spans traced here (tasks, phases, messages) are far coarser
// than a mutex acquisition.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace omx::obs {

struct TraceEvent {
  std::string name;
  const char* category = "omx";  // must be a string literal
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;  // since the buffer's epoch
  std::int64_t dur_ns = 0;
};

class TraceBuffer {
 public:
  /// Buffer all built-in instrumentation records into. Auto-started when
  /// OMX_OBS_TRACE is set to anything but "0".
  static TraceBuffer& global();

  TraceBuffer();
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Clears previous events and begins recording (resets the epoch).
  void start();
  void stop();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the epoch (steady clock).
  std::int64_t now_ns() const;

  void record(std::string name, const char* category, std::int64_t start_ns,
              std::int64_t dur_ns);

  /// Small dense id for the calling thread (assigned on first use).
  static std::uint32_t thread_id();
  /// Names the calling thread's track in exported traces.
  void set_thread_name(std::string name);
  /// Names the process row in exported traces.
  void set_process_name(std::string name);

  std::vector<TraceEvent> events() const;
  std::map<std::uint32_t, std::string> thread_names() const;
  std::string process_name() const;

 private:
  std::atomic<bool> active_{false};
  // steady_clock reading at start(). Atomic: start() can race worker
  // threads reading the epoch through now_ns() (found by TSan).
  std::atomic<std::int64_t> epoch_ns_{0};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::uint32_t, std::string> thread_names_;
  std::string process_name_;
};

/// RAII span recorded into TraceBuffer::global(). A span whose buffer is
/// inactive at construction records nothing, even if a trace starts
/// before it closes (and vice versa: spans open across stop() are kept).
class Span {
 public:
  Span(std::string_view name, const char* category = "omx")
      : live_(TraceBuffer::global().active()) {
    if (live_) {
      name_ = name;
      category_ = category;
      start_ns_ = TraceBuffer::global().now_ns();
    }
  }
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent).
  void close() {
    if (live_) {
      live_ = false;
      TraceBuffer& tb = TraceBuffer::global();
      tb.record(std::move(name_), category_,  start_ns_,
                tb.now_ns() - start_ns_);
    }
  }

 private:
  bool live_;
  std::string name_;
  const char* category_ = "omx";
  std::int64_t start_ns_ = 0;
};

}  // namespace omx::obs
