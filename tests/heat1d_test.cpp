// The 1-D heat equation model (PDE method-of-lines extension, §6 future
// work): structure, semidiscrete exactness, stiffness behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "omx/analysis/partition.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace omx::models {
namespace {

pipeline::CompiledModel compile_heat(const Heat1dConfig& cfg,
                                     bool jacobian = false) {
  pipeline::CompileOptions copts;
  copts.build_jacobian = jacobian;
  return pipeline::compile_model(
      [&](expr::Context& ctx) { return build_heat1d(ctx, cfg); }, copts);
}

TEST(Heat1d, StructureIsOneBigScc) {
  Heat1dConfig cfg;
  cfg.n_cells = 12;
  pipeline::CompiledModel cm = compile_heat(cfg);
  EXPECT_EQ(cm.n(), 12u);
  // The bidirectional neighbor chain makes one SCC: like the bearing,
  // only equation-level parallelism is available.
  EXPECT_EQ(cm.partition.num_subsystems(), 1u);
}

TEST(Heat1d, JacobianIsTridiagonal) {
  Heat1dConfig cfg;
  cfg.n_cells = 10;
  pipeline::CompiledModel cm = compile_heat(cfg);
  const auto mask =
      analysis::jacobian_sparsity(cm.deps, cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    for (std::size_t j = 0; j < cm.n(); ++j) {
      const bool banded = (i == j) || (i + 1 == j) || (j + 1 == i);
      EXPECT_EQ(mask[i][j], banded) << i << "," << j;
    }
  }
}

TEST(Heat1d, MatchesSemidiscreteExactSolution) {
  Heat1dConfig cfg;
  cfg.n_cells = 16;
  pipeline::CompiledModel cm = compile_heat(cfg);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.05);
  ode::SolverOptions o;
  o.tol.rtol = 1e-10;
  o.tol.atol = 1e-12;
  const ode::Solution s = ode::solve(p, ode::Method::kDopri5, o);
  for (int i = 1; i <= cfg.n_cells; ++i) {
    // state order follows node order.
    EXPECT_NEAR(s.final_state()[static_cast<std::size_t>(i - 1)],
                heat1d_semidiscrete_exact(cfg, i, 0.05), 1e-8)
        << "node " << i;
  }
}

TEST(Heat1d, ConvergesToContinuousSolution) {
  // Refining the grid converges the semidiscrete solution to the PDE's.
  const double t = 0.02;
  double prev_err = 1e9;
  for (int cells : {8, 16, 32}) {
    Heat1dConfig cfg;
    cfg.n_cells = cells;
    const double dx = 1.0 / (cells + 1);
    // Mid-domain node closest to x = 0.5.
    const int node = (cells + 1) / 2;
    const double exact = heat1d_exact(cfg, node * dx, t);
    const double semi = heat1d_semidiscrete_exact(cfg, node, t);
    const double err = std::fabs(semi - exact);
    EXPECT_LT(err, prev_err) << cells;
    prev_err = err;
  }
}

TEST(Heat1d, StiffnessGrowsWithResolution_BdfWins) {
  // dx -> 0 makes the system stiff (|lambda_max| ~ 4 alpha/dx^2). BDF at
  // large steps stays stable where the step count of an explicit method
  // explodes.
  Heat1dConfig cfg;
  cfg.n_cells = 60;
  pipeline::CompiledModel cm = compile_heat(cfg, /*jacobian=*/true);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.5);
  cm.bind_symbolic_jacobian(p);

  ode::SolverOptions o;
  o.bdf_max_order = 2;
  o.tol.rtol = 1e-6;
  o.tol.atol = 1e-9;
  o.record_every = 1u << 30;
  const ode::Solution sb = ode::solve(p, ode::Method::kBdf, o);
  const ode::Solution se = ode::solve(p, ode::Method::kDopri5, o);

  // Both arrive near the decayed solution...
  EXPECT_NEAR(sb.final_state()[29], heat1d_semidiscrete_exact(cfg, 30, 0.5),
              1e-3);
  // ...but the explicit solver needs far more steps (stability limit
  // h < ~2/|lambda_max| = dx^2/(2 alpha)).
  EXPECT_GT(se.stats.steps, 3 * sb.stats.steps);
}

TEST(Heat1d, LsodaLikeDetectsStiffness) {
  Heat1dConfig cfg;
  cfg.n_cells = 40;
  pipeline::CompiledModel cm = compile_heat(cfg);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.5);
  ode::SolverOptions o;
  o.tol.rtol = 1e-6;
  o.record_every = 1u << 30;
  // Every run starts on Adams, so a first switch goes to BDF.
  const ode::Solution s = ode::solve(p, ode::Method::kLsodaLike, o);
  EXPECT_GE(s.stats.method_switches, 1u);
  EXPECT_GT(s.stats.jac_factorizations, 0u);
}

TEST(Heat1d, EnergyDecaysMonotonically) {
  Heat1dConfig cfg;
  cfg.n_cells = 16;
  pipeline::CompiledModel cm = compile_heat(cfg);
  ode::Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.1);
  ode::SolverOptions o;
  o.tol.rtol = 1e-9;
  const ode::Solution s = ode::solve(p, ode::Method::kDopri5, o);
  double prev = 1e300;
  for (std::size_t k = 0; k < s.size(); ++k) {
    double energy = 0.0;
    for (double u : s.state(k)) {
      energy += u * u;
    }
    EXPECT_LE(energy, prev * (1.0 + 1e-12));
    prev = energy;
  }
}

TEST(Heat1d, HigherModesDecayFaster) {
  const double t = 0.01;
  Heat1dConfig m1;
  m1.mode = 1;
  Heat1dConfig m3;
  m3.mode = 3;
  m1.n_cells = m3.n_cells = 20;
  const double a1 = std::fabs(heat1d_semidiscrete_exact(m1, 10, t));
  const double a3 = std::fabs(heat1d_semidiscrete_exact(m3, 10, t));
  // mode-3 amplitude decays ~ exp(-9 pi^2 t) vs exp(-pi^2 t).
  EXPECT_LT(a3, a1);
}

TEST(Heat1d, RejectsDegenerateGrid) {
  expr::Context ctx;
  Heat1dConfig cfg;
  cfg.n_cells = 1;
  EXPECT_THROW(build_heat1d(ctx, cfg), omx::Bug);
}

}  // namespace
}  // namespace omx::models
