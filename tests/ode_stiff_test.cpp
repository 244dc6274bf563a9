// Stiff solvers: BDF orders, Newton behaviour, analytic vs finite-diff
// Jacobians, and the LSODA-like automatic switching (§3.2.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "omx/la/sparse.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/solve.hpp"

namespace omx::ode {
namespace {

Problem decay(double lambda, double tend) {
  Problem p;
  p.n = 1;
  p.set_rhs([lambda](double, std::span<const double> y,
                     std::span<double> f) { f[0] = -lambda * y[0]; });
  p.t0 = 0.0;
  p.tend = tend;
  p.y0 = {1.0};
  return p;
}

/// Classic stiff test: y' = -1000(y - cos t) - sin t, y(t) -> cos t.
Problem stiff_tracking(double tend) {
  Problem p;
  p.n = 1;
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    f[0] = -1000.0 * (y[0] - std::cos(t)) - std::sin(t);
  });
  p.sparsity = std::make_shared<const la::SparsityPattern>(
      la::SparsityPattern::dense(1));
  p.set_sparse_jacobian(
      [](double, std::span<const double>, la::CsrMatrix& j) {
        j.values()[0] = -1000.0;
      });
  p.t0 = 0.0;
  p.tend = tend;
  p.y0 = {0.0};
  return p;
}

/// Van der Pol, mu = 30: mildly stiff limit cycle.
Problem van_der_pol(double mu, double tend) {
  Problem p;
  p.n = 2;
  p.set_rhs([mu](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[1];
    f[1] = mu * (1.0 - y[0] * y[0]) * y[1] - y[0];
  });
  p.sparsity = std::make_shared<const la::SparsityPattern>(
      la::SparsityPattern::dense(2));
  p.set_sparse_jacobian(
      [mu](double, std::span<const double> y, la::CsrMatrix& jac) {
        std::span<double> j = jac.values();  // row-major over dense(2)
        j[0] = 0.0;
        j[1] = 1.0;
        j[2] = -2.0 * mu * y[0] * y[1] - 1.0;
        j[3] = mu * (1.0 - y[0] * y[0]);
      });
  p.t0 = 0.0;
  p.tend = tend;
  p.y0 = {2.0, 0.0};
  return p;
}

SolverOptions bdf_opts(int max_order, double fixed_h,
                       Tolerances tol = {}) {
  SolverOptions o;
  o.tol = tol;
  o.bdf_max_order = max_order;
  o.bdf_fixed_h = fixed_h;
  return o;
}

TEST(Bdf, Order1FixedStepConverges) {
  const Problem p = decay(1.0, 1.0);
  const double exact = std::exp(-1.0);
  const double e1 = std::fabs(
      solve(p, Method::kBdf, bdf_opts(1, 0.01)).final_state()[0] - exact);
  const double e2 = std::fabs(
      solve(p, Method::kBdf, bdf_opts(1, 0.005)).final_state()[0] - exact);
  EXPECT_NEAR(e1 / e2, 2.0, 0.2);
}

TEST(Bdf, Order2FixedStepConverges) {
  const Problem p = decay(1.0, 1.0);
  const double exact = std::exp(-1.0);
  const double e1 = std::fabs(
      solve(p, Method::kBdf, bdf_opts(2, 0.02)).final_state()[0] - exact);
  const double e2 = std::fabs(
      solve(p, Method::kBdf, bdf_opts(2, 0.01)).final_state()[0] - exact);
  EXPECT_NEAR(e1 / e2, 4.0, 0.8);
}

TEST(Bdf, Order3FixedStepConverges) {
  const Problem p = decay(1.0, 1.0);
  // The truncation error at order 3 is tiny; tighten the tolerances so the
  // Newton displacement criterion iterates well below it.
  const double exact = std::exp(-1.0);
  const double e1 = std::fabs(
      solve(p, Method::kBdf, bdf_opts(3, 0.02, {1e-13, 1e-13}))
          .final_state()[0] -
      exact);
  const double e2 = std::fabs(
      solve(p, Method::kBdf, bdf_opts(3, 0.01, {1e-13, 1e-13}))
          .final_state()[0] -
      exact);
  EXPECT_NEAR(e1 / e2, 8.0, 2.5);
}

TEST(Bdf, HighOrdersBeatLowOrdersAtSameStep) {
  const Problem p = decay(1.0, 1.0);
  const double exact = std::exp(-1.0);
  double prev_err = 1e9;
  for (int k = 1; k <= 4; ++k) {
    const SolverOptions o = bdf_opts(k, 0.05, {1e-13, 1e-13});
    const double err =
        std::fabs(solve(p, Method::kBdf, o).final_state()[0] - exact);
    EXPECT_LT(err, prev_err) << "order " << k;
    prev_err = err;
  }
}

TEST(Bdf, StableOnVeryStiffDecayWithLargeSteps) {
  // lambda = 1e6; explicit methods would need h ~ 1e-6, BDF1 takes h=0.1.
  const Problem p = decay(1e6, 1.0);
  const Solution s = solve(p, Method::kBdf, bdf_opts(1, 0.1));
  EXPECT_NEAR(s.final_state()[0], 0.0, 1e-6);
  EXPECT_LT(s.stats.steps, 20u);
}

TEST(Bdf, AdaptiveTracksStiffProblem) {
  const Problem p = stiff_tracking(3.0);
  SolverOptions o;
  o.tol.rtol = 1e-6;
  o.tol.atol = 1e-8;
  o.bdf_max_order = 2;
  const Solution s = solve(p, Method::kBdf, o);
  EXPECT_NEAR(s.final_state()[0], std::cos(3.0), 1e-3);
}

TEST(Bdf, AnalyticJacobianReducesRhsCalls) {
  const Problem with_jac = stiff_tracking(2.0);
  Problem without_jac = with_jac;
  without_jac.sparse_jacobian = nullptr;
  SolverOptions o;
  o.bdf_max_order = 2;
  const Solution sj = solve(with_jac, Method::kBdf, o);
  const Solution sf = solve(without_jac, Method::kBdf, o);
  // Finite differencing costs n+1 extra RHS calls per Jacobian refresh —
  // the §3.2.1 argument for generating the Jacobian symbolically.
  EXPECT_LT(sj.stats.rhs_calls, sf.stats.rhs_calls);
  EXPECT_NEAR(sj.final_state()[0], sf.final_state()[0], 1e-4);
}

TEST(Bdf, VanDerPolLimitCycle) {
  const Problem p = van_der_pol(30.0, 10.0);
  SolverOptions o;
  o.tol.rtol = 1e-6;
  o.tol.atol = 1e-8;
  o.bdf_max_order = 2;
  const Solution s = solve(p, Method::kBdf, o);
  // The limit cycle keeps |x| <= ~2.02.
  EXPECT_LE(std::fabs(s.final_state()[0]), 2.1);
  EXPECT_GT(s.stats.newton_iters, s.stats.steps);  // implicit work happened
}

TEST(Bdf, NewtonStatsAccumulate) {
  const Problem p = stiff_tracking(1.0);
  SolverOptions o;
  o.bdf_max_order = 2;
  const Solution s = solve(p, Method::kBdf, o);
  EXPECT_GT(s.stats.newton_iters, 0u);
  EXPECT_GT(s.stats.jac_calls, 0u);
}

TEST(AutoSwitch, StaysOnAdamsForNonStiff) {
  Problem p;
  p.n = 2;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[1];
    f[1] = -y[0];
  });
  p.t0 = 0.0;
  p.tend = 10.0;
  p.y0 = {1.0, 0.0};
  const Solution s = solve(p, Method::kLsodaLike, {});
  EXPECT_EQ(s.stats.method_switches, 0u);
  // Local-error-per-step control: global error ~ steps * tolerance.
  EXPECT_NEAR(s.final_state()[0], std::cos(10.0), 1e-2);
}

// kLsodaLike takes h0 for its first step and never steps past hmax
// (every accepted or rejected attempt, Adams and BDF alike).
TEST(AutoSwitch, HonoursH0AndHmax) {
  Problem p;
  p.n = 2;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[1];
    f[1] = -y[0];
  });
  p.t0 = 0.0;
  p.tend = 10.0;
  p.y0 = {1.0, 0.0};
  SolverOptions o;
  o.h0 = 1e-3;
  o.hmax = 0.01;  // the automatic control grows h to about 0.1
  obs::TraceBuffer& rec = obs::TraceBuffer::global();
  rec.start(obs::TraceBuffer::kSteps);
  const Solution s = solve(p, Method::kLsodaLike, o);
  rec.stop();
  std::vector<double> h;
  for (const obs::StepEvent& ev : rec.step_events()) {
    if (ev.kind == obs::StepEventKind::kStepAccepted ||
        ev.kind == obs::StepEventKind::kStepRejected) {
      h.push_back(ev.h);
    }
  }
  ASSERT_FALSE(h.empty());
  EXPECT_EQ(h.front(), o.h0);
  EXPECT_LE(*std::max_element(h.begin(), h.end()), o.hmax);
  EXPECT_NEAR(s.final_state()[0], std::cos(10.0), 1e-2);
}

TEST(AutoSwitch, SwitchesToBdfOnStiffProblem) {
  const Problem p = stiff_tracking(2.0);
  obs::TraceBuffer& rec = obs::TraceBuffer::global();
  rec.start(obs::TraceBuffer::kSteps);
  const Solution s = solve(p, Method::kLsodaLike, {});
  rec.stop();
  std::vector<std::string> targets;
  for (const obs::StepEvent& ev : rec.step_events()) {
    if (ev.kind == obs::StepEventKind::kMethodSwitch) {
      targets.emplace_back(ev.method);
    }
  }
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets.front(), "bdf");
  EXPECT_EQ(targets.size(), s.stats.method_switches);
  EXPECT_NEAR(s.final_state()[0], std::cos(2.0), 1e-2);
}

TEST(AutoSwitch, SolvesVanDerPol) {
  const Problem p = van_der_pol(100.0, 5.0);
  SolverOptions o;
  o.tol.rtol = 1e-5;
  o.tol.atol = 1e-7;
  const Solution s = solve(p, Method::kLsodaLike, o);
  EXPECT_LE(std::fabs(s.final_state()[0]), 2.1);
}

TEST(AutoSwitch, RecordsMergedStats) {
  const Problem p = stiff_tracking(2.0);
  const Solution s = solve(p, Method::kLsodaLike, {});
  EXPECT_GT(s.stats.rhs_calls, 0u);
  EXPECT_GT(s.stats.steps, 0u);
  EXPECT_GT(s.stats.newton_iters, 0u);
}

TEST(AutoSwitch, SolveDispatchesLsodaLike) {
  const Problem p = stiff_tracking(2.0);
  const Solution s = solve(p, Method::kLsodaLike, {});
  EXPECT_NEAR(s.final_state()[0], std::cos(2.0), 1e-2);
  EXPECT_GE(s.stats.method_switches, 1u);
}

}  // namespace
}  // namespace omx::ode
