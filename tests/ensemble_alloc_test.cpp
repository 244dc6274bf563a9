// Steady-state allocation check for the ensemble's DOPRI5 lane block.
// Once a worker's block is full and no lane joins or retires, a round —
// seven batched stage calls, the stage sums, the error norms, step
// control and the rows it records — must not touch the heap
// (allocations counted by counting_allocator.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "counting_allocator.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/ensemble.hpp"

namespace omx::ode {
namespace {

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
