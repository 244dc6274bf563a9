// Steady-state allocation check for the ensemble's DOPRI5 lane block.
// Once a worker's block is full and no lane joins or retires, a round —
// seven batched stage calls, the stage sums, the error norms, step
// control and the rows it records — must not touch the heap. The binary
// replaces the global operator new/delete with counting versions that
// forward to malloc/free, which is why it is a test program of its own:
// the other suites keep the default allocator.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "omx/obs/trace.hpp"
#include "omx/ode/ensemble.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocations;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size == 0 ? 1 : size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

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

namespace omx::ode {
namespace {

/// Lends each scenario one preallocated chunk, and samples the calling
/// thread's allocation count at every commit.
class SamplingSink final : public TrajectorySink {
 public:
  SamplingSink(std::size_t scenarios, std::size_t n) : chunks_(scenarios) {
    for (std::size_t s = 0; s < scenarios; ++s) {
      chunks_[s].reset(static_cast<std::uint32_t>(s), n, 4);
    }
    samples_.reserve(kMaxSamples);
  }

  TrajectoryChunk* acquire(std::uint32_t scenario, std::size_t) override {
    TrajectoryChunk& c = chunks_[scenario];
    c.size = 0;
    c.final = false;
    return &c;
  }
  void commit(TrajectoryChunk*) override {
    if (samples_.size() < kMaxSamples) {
      samples_.push_back(t_allocations);
    }
  }
  void finish(std::uint32_t, const SolverStats&) override {}

  const std::vector<std::size_t>& samples() const { return samples_; }

 private:
  static constexpr std::size_t kMaxSamples = 1 << 16;
  std::vector<TrajectoryChunk> chunks_;
  std::vector<std::size_t> samples_;
};

TEST(LaneBlock, SteadyStateDopri5RoundAllocatesNothing) {
  // Eight oscillator lanes in one block of eight on one worker, a
  // batched kernel that allocates nothing, every step recorded.
  constexpr std::size_t kLanes = 8;
  Problem p;
  p.n = 2;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[1];
    f[1] = -y[0];
  });
  p.set_batch_rhs([](std::size_t, std::size_t nb, const double*,
                     const double* y, double* f) {
    for (std::size_t j = 0; j < nb; ++j) {
      f[j] = y[nb + j];
      f[nb + j] = -y[j];
    }
  });
  p.tend = 200.0;
  EnsembleSpec spec;
  spec.workers = 1;
  spec.max_batch = kLanes;
  for (std::size_t s = 0; s < kLanes; ++s) {
    spec.initial_states.push_back({1.0 + 0.01 * static_cast<double>(s), 0.0});
  }
  SolverOptions o;
  o.tol = {1e-8, 1e-10};
  SamplingSink sink(kLanes, p.n);
  // Trace capture copies span names by design; the window measures the
  // stepper, so it runs with tracing off (the CI pass forces it on).
  obs::TraceBuffer::global().stop();
  solve_ensemble(p, Method::kDopri5, o, spec, sink);

  // Every lane runs to the same tend, so the middle half of the commits
  // falls between the first round and the first retirement.
  const std::vector<std::size_t>& at = sink.samples();
  ASSERT_GT(at.size(), 400u);
  EXPECT_EQ(at[at.size() * 3 / 4] - at[at.size() / 4], 0u);
}

}  // namespace
}  // namespace omx::ode
