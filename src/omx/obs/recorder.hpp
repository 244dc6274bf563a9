// Solver flight recorder: a per-step structured event log for the ODE
// drivers — step accepted/rejected with (h, order, error norm), Jacobian
// evaluate/factorize/reuse decisions, Newton failures, Adams<->BDF method
// switches, and ensemble lane pack/retire/refill — cheap enough to leave
// compiled into every solver.
//
// Design rules (mirroring registry.hpp):
//  * Recording is gated on one relaxed flag load; with OMX_OBS_RECORDER=0
//    (or unset) a call site pays a load + branch and nothing else.
//  * Each recording thread owns a bounded ring that only it writes:
//    record() is a plain slot store plus one release store of the head
//    index — lock-free, wait-free, and it NEVER blocks. A full ring drops
//    the event and counts it (Recorder::dropped()); the first `capacity`
//    events per thread are kept, so the run's startup — where stiff
//    diagnosis usually lives — always survives.
//  * events() merges every thread's ring into one time-sorted log. It may
//    run concurrently with writers (it sees a prefix of each ring);
//    start() must not race record() — callers quiesce solvers first.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// One recorded decision. POD; `method` must be a string literal (it is
/// stored by pointer, like TraceEvent::category).
struct StepEvent {
  StepEventKind kind = StepEventKind::kStepAccepted;
  std::uint16_t order = 0;    // method order in play (0 when n/a)
  std::uint32_t tid = 0;      // TraceBuffer::thread_id(); filled by record()
  std::uint32_t lane = 0;     // ensemble scenario id (0 when n/a)
  const char* method = "";    // solver name literal ("bdf", "adams", ...)
  std::int64_t when_ns = 0;   // since recorder epoch; filled by record()
  double t = 0.0;             // simulation time
  double h = 0.0;             // step size (0 when n/a)
  double err = 0.0;           // scaled error norm / auxiliary value
};

class Recorder {
 public:
  /// The process-wide recorder all solver instrumentation targets.
  /// Auto-started when OMX_OBS_RECORDER is set to anything but "0";
  /// per-thread ring capacity from OMX_OBS_RECORDER_CAP (default 65536).
  static Recorder& global();

  explicit Recorder(std::size_t capacity_per_thread = 65536);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Discards previous events (fresh rings; in-flight writers finish
  /// into retired rings that are never exported), resets the epoch and
  /// drop counts, and begins recording. Must not race record().
  void start();
  void stop();

  /// Nanoseconds since the epoch (steady clock).
  std::int64_t now_ns() const;

  /// Appends `ev` to the calling thread's ring, filling tid/when_ns.
  /// Wait-free; a full ring counts a drop instead of blocking.
  void record(StepEvent ev);

  std::size_t capacity_per_thread() const { return capacity_; }
  /// Events dropped to full rings since the last start().
  std::uint64_t dropped() const;
  /// Merged snapshot of every thread's ring, sorted by when_ns. Safe
  /// concurrently with writers (sees a prefix of each ring).
  std::vector<StepEvent> events() const;

 private:
  struct Ring;
  Ring& ring_for_this_thread();

  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> epoch_ns_{0};
  /// Drawn from a process-wide counter at construction and by each
  /// start(); invalidates the per-thread cached Ring* (globally unique,
  /// so a Recorder at a recycled address cannot match a stale cache).
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Ring>> rings_;  // guarded by mutex_
};

/// Call-site helpers: record into Recorder::global() when it is enabled
/// (one relaxed load + branch otherwise). `method` must be a literal.

inline void record_step(StepEventKind kind, const char* method,
                        std::uint16_t order, double t, double h,
                        double err, std::uint32_t scenario = 0) {
  Recorder& r = Recorder::global();
  if (r.enabled()) {
    StepEvent ev;
    ev.kind = kind;
    ev.method = method;
    ev.order = order;
    ev.lane = scenario;
    ev.t = t;
    ev.h = h;
    ev.err = err;
    r.record(ev);
  }
}

inline void record_jac(StepEventKind kind, const char* method, double t,
                       double h, double seconds = 0.0) {
  Recorder& r = Recorder::global();
  if (r.enabled()) {
    StepEvent ev;
    ev.kind = kind;
    ev.method = method;
    ev.t = t;
    ev.h = h;
    ev.err = seconds;
    r.record(ev);
  }
}

inline void record_lane(StepEventKind kind, const char* method,
                        std::uint32_t scenario, double t) {
  Recorder& r = Recorder::global();
  if (r.enabled()) {
    StepEvent ev;
    ev.kind = kind;
    ev.method = method;
    ev.lane = scenario;
    ev.t = t;
    r.record(ev);
  }
}

}  // namespace omx::obs
