#include "omx/obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "omx/support/config.hpp"

namespace omx::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer* tb = [] {
    auto* t = new TraceBuffer();  // leaked: worker threads may record
                                  // during static destruction otherwise
    if (config::get_bool("OMX_OBS_TRACE", false)) {
      t->start();
    }
    return t;
  }();
  return *tb;
}

TraceBuffer::TraceBuffer() {
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
}

void TraceBuffer::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
}

void TraceBuffer::stop() {
  active_.store(false, std::memory_order_relaxed);
}

std::int64_t TraceBuffer::now_ns() const {
  return steady_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

void TraceBuffer::record(std::string name, const char* category,
                         std::int64_t start_ns, std::int64_t dur_ns) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = category;
  ev.tid = thread_id();
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
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

std::vector<TraceEvent> TraceBuffer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
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
