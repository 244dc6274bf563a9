// Steady-state allocation checks for the ensemble's DOPRI5 lane block and
// for recording. Once a worker's block is full and no lane joins or
// retires, a round — seven batched stage calls, the stage sums, the error
// norms, step control and the rows it records — must not touch the heap;
// nor may closing a span or recording a step event once the thread's log
// chunk is warm (allocations counted by counting_allocator.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "counting_allocator.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/lane_block.hpp"

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
  // Recording grows each thread's log a chunk at a time; the window
  // measures the stepper, so it runs with recording off (the CI pass
  // forces spans and step events on).
  obs::TraceBuffer::global().stop();
  solve_ensemble(p, Method::kDopri5, o, spec, sink);

  // Every lane runs to the same tend, so the middle half of the commits
  // falls between the first round and the first retirement.
  const std::vector<std::size_t>& at = sink.samples();
  ASSERT_GT(at.size(), 400u);
  EXPECT_EQ(at[at.size() * 3 / 4] - at[at.size() / 4], 0u);
}

TEST(Trace, RecordingAllocatesNothingOnceTheChunkIsWarm) {
  // Spans and step events go to the thread's own log: a slot store, no
  // lock, no name copy. The first record of the thread makes its log;
  // the 40 records after it fit its first chunk of 64.
  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  tb.start(obs::TraceBuffer::kSpans | obs::TraceBuffer::kSteps);
  { obs::Span warm("warm", "test"); }
  const std::size_t before = t_allocations;
  for (int i = 0; i < 20; ++i) {
    obs::Span span("span", "test");
    obs::record_step(obs::StepEventKind::kStepAccepted, "bdf", 2, i, 0.1,
                     0.5);
  }
  const std::size_t allocations = t_allocations - before;
  tb.stop();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(tb.events().size(), 21u);
  EXPECT_EQ(tb.step_events().size(), 20u);
}

/// A 3 x w block with 2 kept arrays whose element (a, i, j) is
/// 100 a + 10 i + j for the lanes j < lanes.
void fill(LaneBlock& b, std::size_t lanes) {
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < lanes; ++j) {
        b[a][i * b.width() + j] = static_cast<double>(100 * a + 10 * i + j);
      }
    }
  }
}

void expect_lanes(const LaneBlock& b, std::size_t lanes) {
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < lanes; ++j) {
        EXPECT_EQ(b[a][i * b.width() + j],
                  static_cast<double>(100 * a + 10 * i + j))
            << "array " << a << " row " << i << " lane " << j;
      }
    }
  }
}

TEST(LaneBlock, GrowByManySlotsKeepsEveryLane) {
  LaneBlock one(3, 3, 2), many(3, 3, 2);
  one.grow(1);
  many.grow(1);
  fill(one, 1);
  fill(many, 1);
  for (int k = 0; k < 4; ++k) {
    one.grow(1);
  }
  many.grow(4);
  ASSERT_EQ(one.width(), 5u);
  ASSERT_EQ(many.width(), 5u);
  expect_lanes(many, 1);
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t e = 0; e < 3; ++e) {
      EXPECT_EQ(many[a][e * 5], one[a][e * 5]);
    }
  }
}

TEST(LaneBlock, WidenDoublesAndTrimDropsTheEmptySlots) {
  // Lanes joining one at a time: the block doubles, and trim() brings
  // it back to the lanes that joined with every kept element in place.
  LaneBlock b(3, 3, 2);
  std::vector<std::size_t> widths;
  for (std::size_t slot = 0; slot < 5; ++slot) {
    b.widen(slot);
    widths.push_back(b.width());
  }
  EXPECT_EQ(widths, (std::vector<std::size_t>{1, 2, 4, 4, 8}));
  fill(b, 5);
  b.trim(5);
  ASSERT_EQ(b.width(), 5u);
  expect_lanes(b, 5);
  b.widen(5);
  EXPECT_EQ(b.width(), 10u);
  expect_lanes(b, 5);
}

}  // namespace
}  // namespace omx::ode
