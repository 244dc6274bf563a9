// Counting global allocator for the steady-state allocation tests.
//
// Include this from exactly one source file of a test binary: it replaces
// the program's global operator new/delete with versions that count
// allocations per thread (t_allocations) and forward to malloc/free.
// That is why each allocation test is a program of its own: the other
// suites keep the default allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "omx/ode/sink.hpp"

inline thread_local std::size_t t_allocations = 0;

inline void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocations;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size == 0 ? 1 : size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
// std::stable_sort's temporary buffer uses the nothrow form; it must pair
// with the free() below too (a sanitizer's own nothrow new would not).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

/// Lends each scenario one preallocated chunk, and samples the calling
/// thread's allocation count at every commit. With one worker the
/// ensemble runs on the calling thread, so the samples bracket rounds.
class SamplingSink final : public omx::ode::TrajectorySink {
 public:
  SamplingSink(std::size_t scenarios, std::size_t n) : chunks_(scenarios) {
    for (std::size_t s = 0; s < scenarios; ++s) {
      chunks_[s].reset(static_cast<std::uint32_t>(s), n, 4);
    }
    samples_.reserve(kMaxSamples);
  }

  omx::ode::TrajectoryChunk* acquire(std::uint32_t scenario,
                                     std::size_t) override {
    omx::ode::TrajectoryChunk& c = chunks_[scenario];
    c.size = 0;
    c.final = false;
    return &c;
  }
  void commit(omx::ode::TrajectoryChunk*) override {
    if (samples_.size() < kMaxSamples) {
      samples_.push_back(t_allocations);
    }
  }
  void finish(std::uint32_t, const omx::ode::SolverStats&) override {}

  const std::vector<std::size_t>& samples() const { return samples_; }

 private:
  static constexpr std::size_t kMaxSamples = 1 << 16;
  std::vector<omx::ode::TrajectoryChunk> chunks_;
  std::vector<std::size_t> samples_;
};
