#include "omx/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <variant>

#include "omx/support/config.hpp"

namespace omx::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Generations are drawn from one process-wide counter so the pair
// (owner pointer, generation) cached per thread can never alias: a new
// buffer constructed at a recycled address still gets a generation no
// cached slot has seen (the classic ABA with stack-allocated buffers in
// tests).
std::atomic<std::uint64_t> g_generation{0};

std::uint64_t next_generation() {
  return g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// A closed span as logged; TraceBuffer::events() builds its name.
struct SpanRecord {
  const char* name;
  const char* category;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::int64_t id;  // < 0: none
};

using Record = std::variant<SpanRecord, StepEvent>;

}  // namespace

const char* to_string(StepEventKind kind) {
  switch (kind) {
    case StepEventKind::kStepAccepted: return "step_accepted";
    case StepEventKind::kStepRejected: return "step_rejected";
    case StepEventKind::kNewtonFail: return "newton_fail";
    case StepEventKind::kJacEvaluate: return "jac_evaluate";
    case StepEventKind::kJacFactorize: return "jac_factorize";
    case StepEventKind::kJacReuse: return "jac_reuse";
    case StepEventKind::kMethodSwitch: return "method_switch";
    case StepEventKind::kLanePack: return "lane_pack";
    case StepEventKind::kLaneRefill: return "lane_refill";
    case StepEventKind::kLaneRetire: return "lane_retire";
    case StepEventKind::kLaneCancel: return "lane_cancel";
    case StepEventKind::kEvent: return "event";
    case StepEventKind::kLaneEventStop: return "lane_event_stop";
  }
  return "unknown";
}

// One thread's log: a chain of fixed-size chunks that only the owning
// thread writes. The writer stores slot `size` plainly (linking a fresh
// chunk first when the tail is full) and then publishes with a release
// store of size+1; a reader acquires `size` and reads only the slots
// below it. Slots are never overwritten, so reader and writer never touch
// one slot concurrently — no per-slot atomics needed.
struct TraceBuffer::Log {
  static constexpr std::size_t kChunk = 64;
  struct Chunk {
    Record slots[kChunk];
    std::atomic<Chunk*> next{nullptr};
  };

  explicit Log(std::uint32_t owner_tid) : tid(owner_tid) {}
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;
  ~Log() {
    Chunk* c = first.next.load(std::memory_order_relaxed);
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  void push(const Record& r) {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n != 0 && n % kChunk == 0) {
      auto* fresh = new Chunk;
      tail->next.store(fresh, std::memory_order_release);
      tail = fresh;
    }
    tail->slots[n % kChunk] = r;
    size.store(n + 1, std::memory_order_release);
  }

  template <typename F>
  void for_each(F&& f) const {
    std::size_t n = size.load(std::memory_order_acquire);
    for (const Chunk* c = &first; n > 0;
         c = c->next.load(std::memory_order_acquire)) {
      const std::size_t k = std::min(n, kChunk);
      for (std::size_t i = 0; i < k; ++i) {
        f(c->slots[i]);
      }
      n -= k;
    }
  }

  const std::uint32_t tid;
  Chunk first;
  Chunk* tail = &first;   // writer only
  std::size_t steps = 0;  // writer only: step events kept
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
};

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer* tb = [] {
    auto* t = new TraceBuffer();  // leaked: worker threads may record
                                  // during static destruction otherwise
    const unsigned kinds =
        (config::get_bool("OMX_OBS_TRACE", false) ? kSpans : 0u) |
        (config::get_bool("OMX_OBS_RECORDER", false) ? kSteps : 0u);
    if (kinds != 0) {
      t->start(kinds);
    }
    return t;
  }();
  return *tb;
}

TraceBuffer::TraceBuffer(std::size_t step_capacity_per_thread)
    : step_capacity_(step_capacity_per_thread) {
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
  generation_.store(next_generation(), std::memory_order_relaxed);
}

void TraceBuffer::start(unsigned kinds) {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.clear();  // retired logs stay alive through thread caches
  generation_.store(next_generation(), std::memory_order_relaxed);
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
  armed_.store(kinds, std::memory_order_relaxed);
}

void TraceBuffer::stop() { armed_.store(0, std::memory_order_relaxed); }

std::int64_t TraceBuffer::now_ns() const {
  return steady_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

TraceBuffer::Log& TraceBuffer::log_for_this_thread() {
  // Per-thread cache of the log handed out by the current generation.
  // Holding the shared_ptr keeps a retired log alive until its writer
  // re-checks the generation, so start() can swap logs without racing
  // in-flight records.
  struct ThreadSlot {
    const TraceBuffer* owner = nullptr;
    std::uint64_t generation = 0;
    std::shared_ptr<Log> log;
  };
  thread_local ThreadSlot slot;
  if (slot.owner != this ||
      slot.generation != generation_.load(std::memory_order_relaxed)) {
    auto fresh = std::make_shared<Log>(thread_id());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Re-read under the lock: a start() may have raced the load above;
      // registering under the current generation keeps the log readable.
      slot.generation = generation_.load(std::memory_order_relaxed);
      logs_.push_back(fresh);
    }
    slot.log = std::move(fresh);
    slot.owner = this;
  }
  return *slot.log;
}

void TraceBuffer::record(const char* name, const char* category,
                         std::int64_t start_ns, std::int64_t dur_ns,
                         std::int64_t id) {
  log_for_this_thread().push(
      SpanRecord{name, category, start_ns, dur_ns, id});
}

void TraceBuffer::record(StepEvent ev) {
  if (!steps_active()) {
    return;
  }
  Log& log = log_for_this_thread();
  if (log.steps >= step_capacity_) {
    log.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++log.steps;
  ev.when_ns = now_ns();
  log.push(ev);
}

std::uint32_t TraceBuffer::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceBuffer::set_thread_name(std::string name) {
  const std::uint32_t tid = thread_id();
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[tid] = std::move(name);
}

void TraceBuffer::set_process_name(std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  process_name_ = std::move(name);
}

std::vector<std::shared_ptr<TraceBuffer::Log>> TraceBuffer::logs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return logs_;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  const std::vector<std::shared_ptr<Log>> all = logs();
  // Sized once up front: a long trace holds millions of spans, and
  // growing by doubling would hold two copies of them at the peak.
  std::size_t records = 0;
  for (const auto& log : all) {
    records += log->size.load(std::memory_order_relaxed);
  }
  std::vector<TraceEvent> out;
  out.reserve(records);
  for (const auto& log : all) {
    log->for_each([&](const Record& r) {
      const auto* s = std::get_if<SpanRecord>(&r);
      if (s == nullptr) {
        return;
      }
      TraceEvent ev;
      ev.name = s->name;
      if (s->id >= 0) {
        ev.name += '/';
        ev.name += std::to_string(s->id);
      }
      ev.category = s->category;
      ev.tid = log->tid;
      ev.start_ns = s->start_ns;
      ev.dur_ns = s->dur_ns;
      out.push_back(std::move(ev));
    });
  }
  return out;
}

std::vector<StepEvent> TraceBuffer::step_events() const {
  std::vector<StepEvent> out;
  for (const auto& log : logs()) {
    log->for_each([&](const Record& r) {
      if (const auto* ev = std::get_if<StepEvent>(&r)) {
        out.push_back(*ev);
        out.back().tid = log->tid;
      }
    });
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const StepEvent& a, const StepEvent& b) {
                     return a.when_ns < b.when_ns;
                   });
  return out;
}

std::uint64_t TraceBuffer::dropped() const {
  std::uint64_t total = 0;
  for (const auto& log : logs()) {
    total += log->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string TraceBuffer::process_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return process_name_;
}

std::map<std::uint32_t, std::string> TraceBuffer::thread_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_names_;
}

}  // namespace omx::obs
