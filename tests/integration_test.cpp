// End-to-end pipeline tests: parse/build -> flatten -> analyze -> codegen
// -> vm -> parallel runtime -> solver, including solving through the
// thread-pool ParallelRhs and the symbolic-Jacobian BDF path.
#include <gtest/gtest.h>

#include <cmath>

#include "omx/la/sparse.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/vm/interp.hpp"

namespace omx::pipeline {
namespace {

TEST(Pipeline, CompileProducesConsistentArtifacts) {
  CompiledModel cm = compile_model(models::build_hydro);
  EXPECT_EQ(cm.deps.deps.size(), cm.n());
  EXPECT_EQ(cm.partition.scc.component.size(), cm.n());
  EXPECT_FALSE(cm.plan.tasks.empty());
  EXPECT_EQ(cm.parallel_program.n_state, cm.n());
  EXPECT_EQ(cm.serial_program.n_state, cm.n());
  // Every state has exactly one ydot contribution set (no splits here).
  std::vector<int> covered(cm.n(), 0);
  for (const auto& t : cm.parallel_program.tasks) {
    for (const auto& o : t.outputs) {
      covered[o.slot] += 1;
    }
  }
  for (int c : covered) {
    EXPECT_EQ(c, 1);
  }
}

TEST(Pipeline, ReferenceSerialAndParallelRhsAgree) {
  CompiledModel cm = compile_model([](expr::Context& ctx) {
    models::BearingConfig cfg;
    cfg.n_rollers = 5;
    return models::build_bearing(ctx, cfg);
  });
  std::vector<double> y(cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    y[i] = cm.flat->states()[i].start;
  }
  std::vector<double> a(cm.n()), b(cm.n()), c(cm.n());
  cm.make_kernel(exec::Backend::kReference).kernel()(0.0, y, a);
  cm.make_kernel(exec::Backend::kInterp).kernel()(0.0, y, b);

  runtime::ParallelRhsOptions opts;
  opts.pool.num_workers = 3;
  KernelOptions ko;
  ko.lanes = 3;
  exec::KernelInstance pk = cm.make_kernel(exec::Backend::kInterp, ko);
  runtime::ParallelRhs par(pk.kernel(), opts);
  par.eval(0.0, y, c);

  for (std::size_t i = 0; i < cm.n(); ++i) {
    EXPECT_NEAR(b[i], a[i], 1e-9 * std::max(1.0, std::fabs(a[i])));
    EXPECT_NEAR(c[i], a[i], 1e-9 * std::max(1.0, std::fabs(a[i])));
  }
}

TEST(Pipeline, SolveOscillatorThroughParallelRuntime) {
  // The full paper pipeline: solver(supervisor) + parallel workers as the
  // RHS of an actual integration run.
  CompileOptions copts;
  copts.tasks.min_ops_per_task = 0;
  CompiledModel cm = compile_model(models::build_oscillator, copts);
  runtime::ParallelRhsOptions opts;
  opts.pool.num_workers = 2;
  KernelOptions ko;
  ko.lanes = 2;
  exec::KernelInstance pk = cm.make_kernel(exec::Backend::kInterp, ko);
  runtime::ParallelRhs par(pk.kernel(), opts);

  // ParallelRhs is itself a callable lvalue: bind it as the RHS view.
  ode::Problem p = cm.make_problem(par, 0.0, 6.0);
  ode::SolverOptions fo;
  fo.dt = 1e-3;
  const ode::Solution s = ode::solve(p, ode::Method::kRk4, fo);
  EXPECT_NEAR(s.final_state()[0], std::cos(6.0), 1e-6);
  EXPECT_EQ(par.rhs_calls(), s.stats.rhs_calls);
}

TEST(Pipeline, SymbolicJacobianDrivesBdf) {
  CompileOptions copts;
  copts.build_jacobian = true;
  CompiledModel cm = compile_model(models::build_oscillator, copts);

  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 2.0);
  cm.bind_symbolic_jacobian(p);
  ode::SolverOptions o;
  o.bdf_max_order = 2;
  o.tol.rtol = 1e-8;
  o.tol.atol = 1e-10;
  const ode::Solution s = ode::solve(p, ode::Method::kBdf, o);
  EXPECT_NEAR(s.final_state()[0], std::cos(2.0), 1e-4);
  EXPECT_GT(s.stats.jac_calls, 0u);
}

TEST(Pipeline, SymbolicJacobianMatchesStructure) {
  CompileOptions copts;
  copts.build_jacobian = true;
  CompiledModel cm = compile_model(models::build_oscillator, copts);
  la::CsrMatrix j(cm.jac_sparsity);
  std::vector<double> y{0.3, -0.2};
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);
  cm.bind_symbolic_jacobian(p);
  p.sparse_jacobian(0.0, y, j);
  EXPECT_DOUBLE_EQ(j.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(j.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(j.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(j.at(1, 1), 0.0);
}

TEST(Pipeline, HydroSolvesIdenticallyViaAllRhsPaths) {
  CompiledModel cm = compile_model(models::build_hydro);
  ode::SolverOptions fo;
  fo.dt = 0.01;
  fo.record_every = 1000;

  ode::Problem pr = cm.make_problem(exec::Backend::kReference, 0.0, 5.0);
  ode::Problem ps = cm.make_problem(exec::Backend::kInterp, 0.0, 5.0);
  const ode::Solution sr = ode::solve(pr, ode::Method::kRk4, fo);
  const ode::Solution ss = ode::solve(ps, ode::Method::kRk4, fo);
  for (std::size_t i = 0; i < cm.n(); ++i) {
    EXPECT_NEAR(ss.final_state()[i], sr.final_state()[i],
                1e-9 * std::max(1.0, std::fabs(sr.final_state()[i])));
  }
}

TEST(Pipeline, LsodaLikeSolvesHydro) {
  CompiledModel cm = compile_model(models::build_hydro);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 120.0);
  ode::SolverOptions o;
  o.tol.rtol = 1e-6;
  o.record_every = 8;
  const ode::Solution s = ode::solve(p, ode::Method::kLsodaLike, o);
  const int level = cm.flat->state_index(cm.ctx->symbol("dam.level"));
  const double l = s.final_state()[static_cast<std::size_t>(level)];
  EXPECT_GT(l, 9.0);
  EXPECT_LT(l, 11.0);
}

TEST(Pipeline, TaskSplittingSurvivesEndToEnd) {
  // Force splitting on the bearing and verify the solution still matches
  // the unsplit pipeline.
  auto builder = [](expr::Context& ctx) {
    models::BearingConfig cfg;
    cfg.n_rollers = 4;
    return models::build_bearing(ctx, cfg);
  };
  CompiledModel plain = compile_model(builder);
  CompileOptions split_opts;
  split_opts.tasks.max_ops_per_task = 40;
  CompiledModel split = compile_model(builder, split_opts);
  EXPECT_GT(split.plan.tasks.size(), plain.plan.tasks.size());

  std::vector<double> y(plain.n());
  for (std::size_t i = 0; i < plain.n(); ++i) {
    y[i] = plain.flat->states()[i].start;
  }
  std::vector<double> a(plain.n()), b(plain.n());
  vm::Workspace wa(plain.parallel_program), wb(split.parallel_program);
  vm::eval_rhs_serial(plain.parallel_program, 0.0, y, a, wa);
  vm::eval_rhs_serial(split.parallel_program, 0.0, y, b, wb);
  for (std::size_t i = 0; i < plain.n(); ++i) {
    EXPECT_NEAR(b[i], a[i], 1e-8 * std::max(1.0, std::fabs(a[i])));
  }
}

}  // namespace
}  // namespace omx::pipeline
