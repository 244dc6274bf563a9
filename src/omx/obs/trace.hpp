// The process's one event store. It holds two kinds of event:
//  * spans: nested timed regions with thread identity, exported as Chrome
//    trace_event "X" complete events (per-worker RHS task timelines,
//    supervisor scatter/gather, compile pipeline phases), and
//  * step events: the solver flight recorder's per-step log (step
//    accepted/rejected with (h, order, error norm), Jacobian
//    evaluate/factorize/reuse decisions, Newton failures, Adams<->BDF
//    method switches, ensemble lane pack/retire/refill).
// Both kinds share one epoch, one dense thread id and one log per thread,
// so a step event recorded inside a span falls inside the span's interval.
//
// Design rules:
//  * The two kinds are armed separately: start(kinds), or OMX_OBS_TRACE=1
//    (spans) and OMX_OBS_RECORDER=1 (step events) at process start. A
//    disarmed call site pays one relaxed load and a branch.
//  * Each recording thread owns a log that only it writes, grown in
//    fixed-size chunks. Recording is a plain slot store plus one release
//    store of the log's length: no lock, and an allocation only when the
//    thread's chunk is full.
//  * Spans are never dropped. Step events keep the first
//    `step_capacity_per_thread` per thread (the run's startup, where stiff
//    diagnosis usually lives) and count the rest as dropped.
//  * events() and step_events() may run while writers record; they see a
//    prefix of each log. A span stores its name by pointer and a span
//    carrying an id reads back as "name/<id>": names are built when the
//    log is read, never when a span closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace omx::obs {

enum class StepEventKind : std::uint8_t {
  kStepAccepted = 0,
  kStepRejected,   // error-controller rejection; err carries the norm
  kNewtonFail,     // corrector failed to converge (step will shrink)
  kJacEvaluate,    // fresh Jacobian values computed
  kJacFactorize,   // iteration matrix M = I - beta*h*J (re)factorized
  kJacReuse,       // beta*h changed, Jacobian values reused (LSODA-style)
  kMethodSwitch,   // kLsodaLike changed integrators; method = target
  kLanePack,       // ensemble: scenario seeded into an empty/new batch
  kLaneRefill,     // ensemble: scenario joined a batch mid-flight
  kLaneRetire,     // ensemble: scenario finished and left its batch
  kLaneCancel,     // ensemble: scenario abandoned by a cancellation flag
  kEvent,          // zero-crossing event fired; order = event index,
                   // t = localized event time
  kLaneEventStop,  // ensemble: scenario retired early by a terminal event
};

/// Stable lowercase identifier ("step_accepted", ...) for exporters.
const char* to_string(StepEventKind kind);

/// One recorded solver decision. POD; `method` must be a string literal
/// (it is stored by pointer, like TraceEvent::category).
struct StepEvent {
  StepEventKind kind = StepEventKind::kStepAccepted;
  std::uint16_t order = 0;    // method order in play (0 when n/a)
  std::uint32_t tid = 0;      // TraceBuffer::thread_id(); filled on read
  std::uint32_t lane = 0;     // ensemble scenario id (0 when n/a)
  const char* method = "";    // solver name literal ("bdf", "adams", ...)
  std::int64_t when_ns = 0;   // since the buffer's epoch; filled by record()
  double t = 0.0;             // simulation time
  double h = 0.0;             // step size (0 when n/a)
  double err = 0.0;           // scaled error norm / auxiliary value
};

struct TraceEvent {
  std::string name;
  const char* category = "omx";  // must be a string literal
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;  // since the buffer's epoch
  std::int64_t dur_ns = 0;
};

class TraceBuffer {
 public:
  /// The kinds start() arms, as bit flags.
  static constexpr unsigned kSpans = 1;
  static constexpr unsigned kSteps = 2;

  /// The store all built-in instrumentation records into. Spans are armed
  /// at process start when OMX_OBS_TRACE is set to anything but "0", step
  /// events when OMX_OBS_RECORDER is.
  static TraceBuffer& global();

  explicit TraceBuffer(std::size_t step_capacity_per_thread = 65536);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Discards every event, thread names excepted (fresh logs: a writer
  /// racing start() finishes into a retired log that is never read),
  /// resets the epoch and the drop count, and arms exactly `kinds`.
  void start(unsigned kinds = kSpans);
  /// Disarms both kinds; what was recorded stays readable.
  void stop();
  /// True while spans are armed.
  bool active() const {
    return (armed_.load(std::memory_order_relaxed) & kSpans) != 0;
  }
  /// True while step events are armed.
  bool steps_active() const {
    return (armed_.load(std::memory_order_relaxed) & kSteps) != 0;
  }

  /// Nanoseconds since the epoch (steady clock).
  std::int64_t now_ns() const;

  /// Appends a complete span to the calling thread's log. `name` and
  /// `category` must be string literals; an `id` >= 0 reads back as
  /// "name/<id>".
  void record(const char* name, const char* category, std::int64_t start_ns,
              std::int64_t dur_ns, std::int64_t id = -1);
  /// Appends `ev` to the calling thread's log, stamping when_ns, if step
  /// events are armed; past the thread's capacity it counts a drop.
  void record(StepEvent ev);

  /// Small dense id for the calling thread (assigned on first use).
  static std::uint32_t thread_id();
  /// Names the calling thread's track in exported traces.
  void set_thread_name(std::string name);
  /// Names the process row in exported traces.
  void set_process_name(std::string name);

  /// Every thread's spans, each thread's in the order they closed.
  std::vector<TraceEvent> events() const;
  /// Every thread's step events, sorted by when_ns.
  std::vector<StepEvent> step_events() const;
  /// Step events dropped past the per-thread capacity since start().
  std::uint64_t dropped() const;
  std::size_t step_capacity_per_thread() const { return step_capacity_; }
  std::map<std::uint32_t, std::string> thread_names() const;
  std::string process_name() const;

 private:
  struct Log;
  Log& log_for_this_thread();
  /// The current generation's logs, copied out under the mutex.
  std::vector<std::shared_ptr<Log>> logs() const;

  const std::size_t step_capacity_;
  std::atomic<unsigned> armed_{0};
  // steady_clock reading at start(). Atomic: start() can race worker
  // threads reading the epoch through now_ns() (found by TSan).
  std::atomic<std::int64_t> epoch_ns_{0};
  /// Drawn from a process-wide counter at construction and by each
  /// start(); invalidates the per-thread cached Log* (globally unique,
  /// so a buffer at a recycled address cannot match a stale cache).
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mutex_;  // the cold paths: the tables below
  std::vector<std::shared_ptr<Log>> logs_;
  std::map<std::uint32_t, std::string> thread_names_;
  std::string process_name_;
};

/// RAII span recorded into TraceBuffer::global(). A span whose buffer is
/// inactive at construction records nothing, even if a trace starts
/// before it closes (and vice versa: spans open across stop() are kept).
/// `name` and `category` must be string literals (or to_string results).
class Span {
 public:
  explicit Span(const char* name, const char* category = "omx")
      : name_(TraceBuffer::global().active() ? name : nullptr),
        category_(category) {
    if (name_ != nullptr) {
      start_ns_ = TraceBuffer::global().now_ns();
    }
  }
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent).
  void close() {
    if (name_ != nullptr) {
      TraceBuffer& tb = TraceBuffer::global();
      tb.record(name_, category_, start_ns_, tb.now_ns() - start_ns_);
      name_ = nullptr;
    }
  }

 private:
  const char* name_;  // nullptr once closed, or when never live
  const char* category_;
  std::int64_t start_ns_ = 0;
};

/// Call-site helpers: record into TraceBuffer::global() when step events
/// are armed (one relaxed load + branch otherwise). `method` must be a
/// literal.

inline void record_step(StepEventKind kind, const char* method,
                        std::uint16_t order, double t, double h,
                        double err, std::uint32_t scenario = 0) {
  TraceBuffer& tb = TraceBuffer::global();
  if (tb.steps_active()) {
    StepEvent ev;
    ev.kind = kind;
    ev.method = method;
    ev.order = order;
    ev.lane = scenario;
    ev.t = t;
    ev.h = h;
    ev.err = err;
    tb.record(ev);
  }
}

inline void record_jac(StepEventKind kind, const char* method, double t,
                       double h, double seconds = 0.0) {
  TraceBuffer& tb = TraceBuffer::global();
  if (tb.steps_active()) {
    StepEvent ev;
    ev.kind = kind;
    ev.method = method;
    ev.t = t;
    ev.h = h;
    ev.err = seconds;
    tb.record(ev);
  }
}

inline void record_lane(StepEventKind kind, const char* method,
                        std::uint32_t scenario, double t) {
  TraceBuffer& tb = TraceBuffer::global();
  if (tb.steps_active()) {
    StepEvent ev;
    ev.kind = kind;
    ev.method = method;
    ev.lane = scenario;
    ev.t = t;
    tb.record(ev);
  }
}

}  // namespace omx::obs
