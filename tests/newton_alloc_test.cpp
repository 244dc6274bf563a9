// Steady-state allocation check for the stiff path. Once a BDF stepper
// on the sparse backend has warmed up, its accepted steps — Jacobian
// refreshes and beta*h refactorizations included — must not touch the
// heap. The binary replaces the global operator new/delete with
// counting versions that forward to malloc/free, which is why it is a
// test program of its own: the other suites keep the default allocator.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "omx/models/heat1d.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/bdf.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/pipeline/pipeline.hpp"

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace omx {
namespace {

TEST(StiffPath, SteadyStateNewtonLoopAllocatesNothing) {
  pipeline::CompileOptions copts;
  copts.build_jacobian = true;
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::Heat1dConfig cfg;
        cfg.n_cells = 128;
        return models::build_heat1d(ctx, cfg);
      },
      copts);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);
  cm.bind_symbolic_jacobian(p);
  p.jac_plan = ode::make_jac_plan(p);
  ASSERT_TRUE(p.jac_plan != nullptr);
  ASSERT_TRUE(p.jac_plan->use_sparse);

  ode::SolverOptions opts;
  opts.bdf_max_order = 2;
  ode::BdfStepper stepper(p, opts);
  // Warm-up: the first factorization, the order ramp and the early
  // rejections size every buffer. The step size then still doubles a
  // few times, so the window below sees beta*h refactorizations.
  for (int accepted = 0; accepted < 4;) {
    ASSERT_LT(stepper.t(), p.tend);
    accepted += stepper.step() ? 1 : 0;
  }

  // Trace capture copies span names by design; the window measures the
  // solver, so it runs with tracing off (the CI pass forces it on).
  obs::TraceBuffer::global().stop();
  const ode::SolverStats before = stepper.stats();
  const std::size_t allocations_before = t_allocations;
  for (int accepted = 0; accepted < 100 && stepper.t() < p.tend;) {
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

}  // namespace
}  // namespace omx
