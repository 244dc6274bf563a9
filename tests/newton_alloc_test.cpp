// Steady-state allocation checks for the stiff path. Once a BDF stepper
// has warmed up, its accepted steps — Jacobian refreshes and beta*h
// refactorizations included — and an event-style restart must not touch
// the heap, on a structural pattern and on the full one alike, with a
// symbolic, hand-written or colored finite-difference Jacobian; neither
// may an ensemble worker's lockstep BDF rounds or the replay of a pivoted
// LU (allocations counted by counting_allocator.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <vector>

#include "counting_allocator.hpp"
#include "dense_oracle.hpp"
#include "omx/la/sparse.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/bdf.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace omx {
namespace {

/// The heat PDE compiled with its symbolic Jacobian tapes.
pipeline::CompiledModel compile_heat(std::size_t cells) {
  pipeline::CompileOptions copts;
  copts.build_jacobian = true;
  return pipeline::compile_model(
      [cells](expr::Context& ctx) {
        models::Heat1dConfig cfg;
        cfg.n_cells = cells;
        return models::build_heat1d(ctx, cfg);
      },
      copts);
}

/// Warms `stepper` up, then expects its next 100 accepted steps (fewer
/// at `tend`) to allocate nothing, with Jacobian refreshes and beta*h
/// refactorizations among them.
void expect_steady_state_allocates_nothing(ode::BdfStepper& stepper,
                                           double tend) {
  // Warm-up: the first factorization, the order ramp and the early
  // rejections size every buffer. The step size then still doubles a
  // few times, so the window below sees beta*h refactorizations.
  for (int accepted = 0; accepted < 4;) {
    ASSERT_LT(stepper.t(), tend);
    accepted += stepper.step() ? 1 : 0;
  }

  // Recording grows each thread's log a chunk at a time; the window
  // measures the solver, so it runs with recording off (the CI pass
  // forces spans and step events on).
  obs::TraceBuffer::global().stop();
  const ode::SolverStats before = stepper.stats();
  const std::size_t allocations_before = t_allocations;
  for (int accepted = 0; accepted < 100 && stepper.t() < tend;) {
    accepted += stepper.step() ? 1 : 0;
  }
  const std::size_t allocations = t_allocations - allocations_before;
  const ode::SolverStats& after = stepper.stats();

  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(after.steps - before.steps, 40u);
  EXPECT_GT(after.jac_calls, before.jac_calls) << "no Jacobian refresh";
  EXPECT_GT(after.jac_reuse_hits, before.jac_reuse_hits)
      << "no beta*h refactorization";
}

TEST(StiffPath, SteadyStateNewtonLoopAllocatesNothing) {
  pipeline::CompiledModel cm = compile_heat(128);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);
  cm.bind_symbolic_jacobian(p);
  p.jac_plan = ode::make_jac_plan(p);
  ASSERT_TRUE(p.jac_plan != nullptr);

  ode::SolverOptions opts;
  opts.bdf_max_order = 2;
  ode::BdfLanes lanes(p);
  ode::BdfStepper stepper(p, opts, lanes, 0);
  expect_steady_state_allocates_nothing(stepper, p.tend);

  // An event restart: h = 0 picks the initial step with one RHS call
  // in its lanes block's scratch, and the stepper steps on from there.
  std::vector<double> scratch(p.n);
  const std::span<const double> yn = stepper.y(scratch);
  const std::vector<double> y(yn.begin(), yn.end());
  const std::uint64_t rhs_before = stepper.stats().rhs_calls;
  const std::size_t restart_before = t_allocations;
  stepper.restart(stepper.t(), y, 0.0);
  for (int accepted = 0; accepted < 4 && stepper.t() < p.tend;) {
    accepted += stepper.step() ? 1 : 0;
  }
  EXPECT_EQ(t_allocations - restart_before, 0u);
  EXPECT_GT(stepper.stats().rhs_calls, rhs_before);
}

TEST(StiffPath, SteadyStateDenseNewtonLoopAllocatesNothing) {
  // Four coupled states and a hand-written dense Jacobian over the full
  // 4 x 4 pattern, written straight into the engine's values.
  ode::Problem p;
  p.n = 4;
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    f[0] = -200.0 * (y[0] - std::cos(t)) + y[1] * y[3];
    f[1] = 10.0 * (y[0] - y[1]) - y[1] * y[1] * y[1];
    f[2] = y[1] - 50.0 * y[2] + 0.1 * y[0] * y[3];
    f[3] = y[2] - 0.5 * y[3] - y[0] * y[1];
  });
  p.sparsity = std::make_shared<const la::SparsityPattern>(
      la::SparsityPattern::dense(4));
  p.set_sparse_jacobian(
      [](double, std::span<const double> y, la::CsrMatrix& jac) {
        // Row-major over dense(4): entry (i, k) at i * 4 + k.
        const double j[16] = {-200.0, y[3], 0.0, y[1],
                              10.0, -10.0 - 3.0 * y[1] * y[1], 0.0, 0.0,
                              0.1 * y[3], 1.0, -50.0, 0.1 * y[0],
                              -y[1], -y[0], 1.0, -0.5};
        std::copy(std::begin(j), std::end(j), jac.values().begin());
      });
  p.tend = 100.0;
  p.y0 = {0.0, 1.0, 0.5, -1.0};

  ode::SolverOptions opts;
  opts.bdf_max_order = 2;
  ode::BdfLanes lanes(p);
  ode::BdfStepper stepper(p, opts, lanes, 0);
  expect_steady_state_allocates_nothing(stepper, p.tend);
}

TEST(StiffPath, SteadyStateColoredFdNewtonLoopAllocatesNothing) {
  // No Jacobian bound: every refresh is a colored finite difference on
  // the structural pattern, its color groups the lanes of one batched
  // call or one RHS call each, and the differences land in the engine's
  // own scratch.
  pipeline::CompiledModel cm = compile_heat(128);
  for (const bool batched : {true, false}) {
    SCOPED_TRACE(batched ? "batched" : "one call per color group");
    ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);
    ASSERT_TRUE(p.sparsity && p.batch_rhs);
    ASSERT_FALSE(p.sparse_jacobian);
    if (!batched) {
      p.batch_rhs = nullptr;
    }

    ode::SolverOptions opts;
    opts.bdf_max_order = 2;
    ode::BdfLanes lanes(p);
    ode::BdfStepper stepper(p, opts, lanes, 0);
    expect_steady_state_allocates_nothing(stepper, p.tend);
  }
}

TEST(StiffPath, SteadyStateDenseSymbolicNewtonLoopAllocatesNothing) {
  // The symbolic Jacobian over the full pattern: the structural tape's
  // values scattered into the full n x n values on every refresh.
  pipeline::CompiledModel cm = compile_heat(32);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);
  oracle::bind_full_pattern_jacobian(cm, p);
  ASSERT_EQ(ode::make_jac_plan(p)->pattern->nnz(), p.n * p.n);

  ode::SolverOptions opts;
  opts.bdf_max_order = 2;
  ode::BdfLanes lanes(p);
  ode::BdfStepper stepper(p, opts, lanes, 0);
  expect_steady_state_allocates_nothing(stepper, p.tend);
}

TEST(SparseLu, PivotedRefactorReplayAllocatesNothing) {
  // A full 6 x 6 matrix whose every pivot is a row swap: once factored,
  // refactoring it (rescaled, so every pivot repeats) replays the stored
  // row order in place instead of building the structure again.
  constexpr std::size_t n = 6;
  la::CsrMatrix a(std::make_shared<la::SparsityPattern>(
      la::SparsityPattern::dense(n)));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Row n-1-i of a column-dominant matrix: the pivot of column j is
      // input row n-1-j, by a strict margin.
      a.values()[(n - 1 - i) * n + j] =
          i == j ? 10.0 + static_cast<double>(j)
                 : 1.0 / static_cast<double>(2 + i + 3 * j);
    }
  }
  la::SparseLu lu(a);
  std::vector<double> x(n, 1.0);
  const std::size_t before = t_allocations;
  for (int rep = 0; rep < 10; ++rep) {
    for (double& v : a.values()) {
      v *= rep % 2 == 0 ? 2.0 : -0.5;
    }
    lu.refactor(a);
    lu.solve(x, x);
  }
  EXPECT_EQ(t_allocations - before, 0u);
  EXPECT_TRUE(std::isfinite(x[0]));
}

TEST(StiffPath, SteadyStateLockstepBdfRoundAllocatesNothing) {
  // Eight heat lanes in one batch of eight on one worker: every round's
  // Newton iterations are one batched RHS call and one lanes solve over
  // the lanes still iterating, with each lane's Jacobian refreshes and
  // refactorizations on the way, and every step recorded.
  constexpr std::size_t kLanes = 8;
  pipeline::CompiledModel cm = compile_heat(128);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.2);
  cm.bind_symbolic_jacobian(p);
  ASSERT_TRUE(p.batch_rhs);
  ode::EnsembleSpec spec;
  spec.workers = 1;
  spec.max_batch = kLanes;
  for (std::size_t s = 0; s < kLanes; ++s) {
    std::vector<double> y0 = p.y0;
    for (double& v : y0) {
      v *= 1.0 + 0.05 * static_cast<double>(s);
    }
    spec.initial_states.push_back(std::move(y0));
  }
  ode::SolverOptions o;
  o.bdf_max_order = 2;
  SamplingSink sink(kLanes, p.n);
  obs::TraceBuffer::global().stop();
  ode::solve_ensemble(p, ode::Method::kBdf, o, spec, sink);

  // Scaled initial states decay alike, so the lanes run side by side to
  // tend and the middle half of the commits falls between the first
  // round and the first retirement.
  const std::vector<std::size_t>& at = sink.samples();
  ASSERT_GT(at.size(), 200u);
  EXPECT_EQ(at[at.size() * 3 / 4] - at[at.size() / 4], 0u);
}

}  // namespace
}  // namespace omx
