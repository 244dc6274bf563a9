// Chase-Lev work-stealing deque (Chase & Lev, "Dynamic Circular
// Work-Stealing Deques", SPAA 2005), specialized for the ensemble's
// scenario deal (WorkSource in ode/ensemble.cpp):
//
//  * Fixed capacity. Each worker's deque is seeded once with its LPT
//    deal before the worker threads start, and only drained (pop/steal)
//    afterwards, so the circular-growth path of the original algorithm
//    is unnecessary and indices never wrap.
//  * seq_cst atomics instead of standalone fences. ThreadSanitizer does
//    not model std::atomic_thread_fence, so the classic fence-based C11
//    formulation produces false race reports; sequentially consistent
//    operations are strictly stronger, keep the ensemble TSan-clean, and
//    cost nothing measurable at the per-scenario granularity scheduled
//    here.
//
// The owner pops newest-first from the bottom; thieves steal oldest-first
// from the top. Seeded with an LPT assignment (descending predicted
// cost), a thief therefore migrates the largest remaining item — the
// most rebalancing per steal.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

namespace omx::runtime {

class TaskDeque {
 public:
  TaskDeque() = default;
  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Before any pop/steal: ensures room for `cap` entries.
  void reserve(std::size_t cap) {
    if (cap > cap_) {
      buf_.reset(new std::atomic<std::uint32_t>[cap]);
      cap_ = cap;
    }
  }

  /// Before any pop/steal: fills the deque. tasks[0] becomes
  /// the oldest entry (stolen first); tasks.back() is popped first by the
  /// owner. Requires reserve(tasks.size()) to have happened.
  void seed(std::span<const std::uint32_t> tasks) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      buf_[i].store(tasks[i], std::memory_order_relaxed);
    }
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(static_cast<std::int64_t>(tasks.size()),
                  std::memory_order_relaxed);
  }

  /// Owner-only: removes the newest entry. Returns false when empty.
  bool pop(std::uint32_t& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);  // publish the claim
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Empty (or a thief got the last entry): undo the claim.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = buf_[b].load(std::memory_order_relaxed);
    if (t == b) {
      // Last entry: race the thieves for it via the CAS on top.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_seq_cst);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  /// Any thread: removes the oldest entry. Returns false when empty or
  /// when the CAS loses a race (the caller retries or picks a new
  /// victim).
  bool steal(std::uint32_t& out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) {
      return false;
    }
    // Read the entry before claiming it; a failed CAS discards the value.
    out = buf_[t].load(std::memory_order_relaxed);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
  }

  /// Racy size approximation for victim selection only.
  std::size_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::unique_ptr<std::atomic<std::uint32_t>[]> buf_;
  std::size_t cap_ = 0;
};

}  // namespace omx::runtime
