// Non-stiff solver suite: exactness on known solutions, convergence
// orders, error control, and the Solution container. All solves go
// through the unified ode::solve entry point; one test pins the explicit
// methods' trajectories to hex-float reference values.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include <algorithm>

#include "omx/la/sparse.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/adams.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/events.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace omx::ode {
namespace {

/// y' = -y, y(0) = 1, y(t) = exp(-t).
Problem decay() {
  Problem p;
  p.n = 1;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = -y[0];
  });
  p.t0 = 0.0;
  p.tend = 2.0;
  p.y0 = {1.0};
  return p;
}

/// x' = y, y' = -x: circle; exact (cos t, -sin t).
Problem oscillator(double tend) {
  Problem p;
  p.n = 2;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[1];
    f[1] = -y[0];
  });
  p.t0 = 0.0;
  p.tend = tend;
  p.y0 = {1.0, 0.0};
  return p;
}

double final_error_decay(const Solution& s) {
  return std::fabs(s.final_state()[0] - std::exp(-2.0));
}

SolverOptions with_dt(double dt) {
  SolverOptions o;
  o.dt = dt;
  return o;
}

TEST(ProblemValidate, RejectsBadSetups) {
  Problem p = decay();
  p.y0.clear();
  EXPECT_THROW(p.validate(), omx::Error);
  p = decay();
  p.tend = p.t0;
  p.validate();  // zero-step solve is legal (streams one row + finish)
  p.tend = p.t0 - 1.0;
  EXPECT_THROW(p.validate(), omx::Error);
  p = decay();
  p.rhs = nullptr;
  EXPECT_THROW(p.validate(), omx::Error);
}

TEST(ProblemValidate, RejectsKernelArityMismatch) {
  Problem p = decay();
  p.rhs_arity = 2;  // kernel says 2 states, problem says 1
  EXPECT_THROW(p.validate(), omx::Error);
  p.rhs_arity = 1;
  p.validate();
}

TEST(Euler, FirstOrderConvergence) {
  const Problem p = decay();
  const double e1 =
      final_error_decay(solve(p, Method::kExplicitEuler, with_dt(1e-3)));
  const double e2 =
      final_error_decay(solve(p, Method::kExplicitEuler, with_dt(5e-4)));
  EXPECT_NEAR(e1 / e2, 2.0, 0.1);  // halving h halves the error
}

TEST(Rk4, FourthOrderConvergence) {
  const Problem p = decay();
  const double e1 = final_error_decay(solve(p, Method::kRk4, with_dt(0.1)));
  const double e2 = final_error_decay(solve(p, Method::kRk4, with_dt(0.05)));
  EXPECT_NEAR(e1 / e2, 16.0, 2.0);
}

TEST(Rk4, HitsTendExactlyWithNonDividingStep) {
  Problem p = decay();
  p.tend = 1.0;
  // 0.3 * 4 > 1.0: final step clipped
  const Solution s = solve(p, Method::kRk4, with_dt(0.3));
  EXPECT_DOUBLE_EQ(s.final_time(), 1.0);
}

TEST(Rk4, EnergyNearlyConservedOnOscillator) {
  const Problem p = oscillator(20.0);
  const Solution s = solve(p, Method::kRk4, with_dt(1e-3));
  const auto y = s.final_state();
  EXPECT_NEAR(y[0] * y[0] + y[1] * y[1], 1.0, 1e-9);
}

TEST(Dopri5, MeetsToleranceOnOscillator) {
  const Problem p = oscillator(10.0);
  SolverOptions o;
  o.tol.rtol = 1e-8;
  o.tol.atol = 1e-10;
  const Solution s = solve(p, Method::kDopri5, o);
  EXPECT_NEAR(s.final_state()[0], std::cos(10.0), 1e-6);
  EXPECT_NEAR(s.final_state()[1], -std::sin(10.0), 1e-6);
}

TEST(Dopri5, TighterToleranceCostsMoreAndHelps) {
  const Problem p = oscillator(10.0);
  SolverOptions loose;
  loose.tol.rtol = 1e-4;
  loose.tol.atol = 1e-6;
  SolverOptions tight;
  tight.tol.rtol = 1e-10;
  tight.tol.atol = 1e-12;
  const Solution sl = solve(p, Method::kDopri5, loose);
  const Solution st = solve(p, Method::kDopri5, tight);
  EXPECT_GT(st.stats.rhs_calls, sl.stats.rhs_calls);
  const double el = std::fabs(sl.final_state()[0] - std::cos(10.0));
  const double et = std::fabs(st.final_state()[0] - std::cos(10.0));
  EXPECT_LT(et, el);
}

TEST(Dopri5, AdaptsToVaryingTimescale) {
  // y' = -50 (y - sin t) + cos t: fast transient, then slow tracking.
  Problem p;
  p.n = 1;
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    f[0] = -50.0 * (y[0] - std::sin(t)) + std::cos(t);
  });
  p.t0 = 0.0;
  p.tend = 3.0;
  p.y0 = {1.0};
  SolverOptions o;
  o.tol.rtol = 1e-7;
  o.tol.atol = 1e-9;
  const Solution s = solve(p, Method::kDopri5, o);
  EXPECT_NEAR(s.final_state()[0], std::sin(3.0), 1e-4);
  EXPECT_GT(s.stats.steps, 10u);
}

TEST(Dopri5, ReportsRejectionsUnderRoughness) {
  Problem p;
  p.n = 1;
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    f[0] = (t < 1.0 ? 1.0 : -300.0 * y[0]);  // kink at t = 1
  });
  p.t0 = 0.0;
  p.tend = 2.0;
  p.y0 = {0.0};
  const Solution s = solve(p, Method::kDopri5, {});
  EXPECT_GT(s.stats.rejected, 0u);
}

TEST(Adams, MatchesExactSolution) {
  const Problem p = oscillator(8.0);
  SolverOptions o;
  o.tol.rtol = 1e-8;
  o.tol.atol = 1e-10;
  const Solution s = solve(p, Method::kAdamsPece, o);
  EXPECT_NEAR(s.final_state()[0], std::cos(8.0), 1e-5);
  EXPECT_NEAR(s.final_state()[1], -std::sin(8.0), 1e-5);
}

TEST(Adams, FewerRhsCallsPerStepThanRk4) {
  // The multistep advantage: 2 RHS calls per accepted step vs RK4's 4.
  // Pinning h (h0 == hmax) isolates the steady-state PECE cost from the
  // RK4-based history rebuilds that step-size changes require.
  const Problem p = oscillator(20.0);
  SolverOptions ao;
  ao.tol.rtol = 1e-6;
  ao.tol.atol = 1e-8;
  ao.h0 = 0.02;
  ao.hmax = 0.02;
  const Solution sa = solve(p, Method::kAdamsPece, ao);
  const double ea = std::fabs(sa.final_state()[0] - std::cos(20.0));
  EXPECT_LT(ea, 1e-3);
  EXPECT_LT(sa.stats.rhs_calls, 3u * sa.stats.steps);
}

TEST(Adams, StepperRestartWorks) {
  const Problem p = oscillator(10.0);
  AdamsStepper st(p, {});
  const double t_initial = st.t();
  EXPECT_GT(t_initial, 0.0);  // startup advanced the RK4 bootstrap
  while (st.t() < 5.0) {
    st.step();
  }
  std::vector<double> y(st.y().begin(), st.y().end());
  st.restart(st.t(), y, 0.0);
  while (st.t() < p.tend) {
    st.step();
  }
  EXPECT_NEAR(st.y()[0], std::cos(10.0), 1e-4);
}

// Reference numbers for the explicit methods, captured from the scalar
// Euler/RK4/DOPRI5 drivers that ode::solve ran before it became a
// one-lane run of the ensemble steppers. The ball cases cover the cubic
// Hermite (fixed-step) and DOPRI5 dense-output event paths.
struct ExplicitPin {
  const char* label;
  Method method;
  bool ball;  // bouncing ball to t = 2.2, else oscillator to t = 5
  std::size_t record_every;
  std::size_t rows;
  double t_end;
  double y_end[2];
  std::uint64_t steps, rhs_calls, rejected, events;
};

TEST(SolveDispatch, ExplicitMethodsMatchPinnedTrajectories) {
  const ExplicitPin pins[] = {
      {"osc euler", Method::kExplicitEuler, false, 1, 5001, 0x1.4p+2,
       {0x1.23320da2af207p-2, 0x1.ec32cc4351cc9p-1}, 5000, 5000, 0, 0},
      {"osc rk4", Method::kRk4, false, 1, 5001, 0x1.4p+2,
       {0x1.22785706b47b2p-2, 0x1.eaf81f5e099c4p-1}, 5000, 20000, 0, 0},
      {"osc dopri5", Method::kDopri5, false, 1, 49, 0x1.4p+2,
       {0x1.227856de6a256p-2, 0x1.eaf81c59c7b47p-1}, 48, 301, 2, 0},
      {"osc dopri5 every 3", Method::kDopri5, false, 3, 17, 0x1.4p+2,
       {0x1.227856de6a256p-2, 0x1.eaf81c59c7b47p-1}, 48, 301, 2, 0},
      {"ball euler", Method::kExplicitEuler, true, 1, 2207,
       0x1.199999999999ap+1,
       {0x1.ae65f36176d0ap-5, -0x1.0747d97b6a872p+1}, 2203, 2209, 0, 3},
      {"ball rk4", Method::kRk4, true, 1, 2206, 0x1.199999999999ap+1,
       {0x1.00f7423c4f2afp-5, -0x1.105e040718958p+1}, 2202, 8814, 0, 3},
      {"ball rk4 every 3", Method::kRk4, true, 3, 740, 0x1.199999999999ap+1,
       {0x1.00f7423c4f2afp-5, -0x1.105e040718958p+1}, 2202, 8814, 0, 3},
      {"ball dopri5", Method::kDopri5, true, 1, 29, 0x1.199999999999ap+1,
       {0x1.00f7424fdc514p-5, -0x1.105e04052ad13p+1}, 25, 154, 0, 3},
  };
  for (const ExplicitPin& pin : pins) {
    SolverOptions o = with_dt(1e-3);
    o.record_every = pin.record_every;
    if (pin.ball) {
      o.tol = {1e-9, 1e-9};
    }
    const Problem p =
        pin.ball ? models::bouncing_ball_problem(models::BouncingBall{}, 2.2)
                 : oscillator(5.0);
    const Solution s = solve(p, pin.method, o);
    EXPECT_EQ(s.size(), pin.rows) << pin.label;
    EXPECT_EQ(s.final_time(), pin.t_end) << pin.label;
    ASSERT_EQ(s.final_state().size(), 2u) << pin.label;
    EXPECT_EQ(s.final_state()[0], pin.y_end[0]) << pin.label;
    EXPECT_EQ(s.final_state()[1], pin.y_end[1]) << pin.label;
    EXPECT_EQ(s.stats.steps, pin.steps) << pin.label;
    EXPECT_EQ(s.stats.rhs_calls, pin.rhs_calls) << pin.label;
    EXPECT_EQ(s.stats.rejected, pin.rejected) << pin.label;
    EXPECT_EQ(s.stats.events, pin.events) << pin.label;
  }
}

/// y' = -1000 (y - cos t) - sin t, y(0) = 0: y -> cos t after a fast
/// transient. Stiff enough that kLsodaLike switches to BDF.
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

// Reference numbers for the multistep methods, captured from the
// per-method Adams, BDF and auto-switch drivers that ode::solve ran
// before the three became one multistep lane stepper. The cases cover
// the record cadence, the Hermite (Adams) and history (BDF) event
// paths, LSODA switching, and the sparse symbolic Jacobian.
struct MultistepPin {
  const char* label;
  const char* problem;  // key into the case table below
  Method method;
  std::size_t rows;
  double t_end;
  std::vector<double> y_end;
  std::uint64_t steps, rhs_calls, rejected, events, method_switches,
      jac_factorizations;
};

struct MultistepCase {
  const char* name;
  Problem p;
  SolverOptions o;
};

std::vector<MultistepCase> multistep_cases(pipeline::CompiledModel& heat) {
  std::vector<MultistepCase> cases;
  cases.push_back({"osc", oscillator(5.0), {}});
  SolverOptions every3;
  every3.record_every = 3;
  cases.push_back({"osc every 3", oscillator(5.0), every3});
  cases.push_back(
      {"ball", models::bouncing_ball_problem(models::BouncingBall{}, 2.2),
       {}});
  cases.push_back({"stiff", stiff_tracking(2.0), {}});
  Problem hp = heat.make_problem(exec::Backend::kInterp, 0.0, 0.5);
  heat.bind_symbolic_jacobian(hp);
  cases.push_back({"heat16", hp, {}});
  return cases;
}

pipeline::CompiledModel compile_heat16() {
  pipeline::CompileOptions copts;
  copts.build_jacobian = true;
  return pipeline::compile_model(
      [](expr::Context& ctx) {
        models::Heat1dConfig cfg;
        cfg.n_cells = 16;
        return models::build_heat1d(ctx, cfg);
      },
      copts);
}

TEST(SolveDispatch, MultistepMethodsMatchPinnedTrajectories) {
  const MultistepPin pins[] = {
      {"osc adams_pece", "osc", Method::kAdamsPece, 145, 0x1.4p+2,
       {0x1.227982f60531ap-2, 0x1.eaf84716df07fp-1},
       197, 1228, 3, 0, 0, 0},
      {"osc bdf", "osc", Method::kBdf, 778, 0x1.4p+2,
       {0x1.22551eebbb93ep-2, 0x1.eaf31b95ef762p-1},
       777, 1718, 15, 0, 0, 86},
      {"osc lsoda_like", "osc", Method::kLsodaLike, 144, 0x1.4p+2,
       {0x1.227982f60531ap-2, 0x1.eaf84716df07fp-1},
       197, 1242, 3, 0, 0, 0},
      {"osc every 3 adams_pece", "osc every 3",
       Method::kAdamsPece, 50, 0x1.4p+2,
       {0x1.227982f60531ap-2, 0x1.eaf84716df07fp-1},
       197, 1228, 3, 0, 0, 0},
      {"osc every 3 bdf", "osc every 3", Method::kBdf, 260, 0x1.4p+2,
       {0x1.22551eebbb93ep-2, 0x1.eaf31b95ef762p-1},
       777, 1718, 15, 0, 0, 86},
      {"osc every 3 lsoda_like", "osc every 3",
       Method::kLsodaLike, 49, 0x1.4p+2,
       {0x1.227982f60531ap-2, 0x1.eaf84716df07fp-1},
       197, 1242, 3, 0, 0, 0},
      {"ball adams_pece", "ball", Method::kAdamsPece, 460, 0x1.199999999999ap+1,
       {0x1.00f742227608cp-5, -0x1.105e0407df9bcp+1},
       626, 3932, 0, 3, 0, 0},
      {"ball bdf", "ball", Method::kBdf, 366, 0x1.199999999999ap+1,
       {0x1.4808f4cfe3ed2p-6, 0x1.adf4f171d4823p+0},
       361, 952, 53, 4, 0, 251},
      {"ball lsoda_like", "ball", Method::kLsodaLike, 367, 0x1.199999999999ap+1,
       {0x1.fd3c566611c61p-6, -0x1.106e4607ea993p+1},
       413, 1741, 30, 3, 1, 159},
      {"stiff adams_pece", "stiff", Method::kAdamsPece, 704, 0x1p+1,
       {-0x1.aa2253d5552acp-2},
       1029, 7158, 83, 0, 0, 0},
      {"stiff bdf", "stiff", Method::kBdf, 524, 0x1p+1,
       {-0x1.aa22655ea235dp-2},
       523, 1072, 15, 0, 0, 76},
      {"stiff lsoda_like", "stiff", Method::kLsodaLike, 507, 0x1p+1,
       {-0x1.aa2264e5228cbp-2},
       671, 4021, 72, 0, 11, 135},
      {"heat16 adams_pece", "heat16", Method::kAdamsPece, 195, 0x1p-1,
       {0x1.5f5190dec9dep-10, 0x1.5956278e167f2p-9, 0x1.f741116906b63p-9,
        0x1.4204481c298bfp-8, 0x1.7d70dea795675p-8, 0x1.abe0018c534c2p-8,
        0x1.cbbd301664ab8p-8, 0x1.dbf24878a3496p-8, 0x1.dbf263fce1a32p-8,
        0x1.cbbd1581c0289p-8, 0x1.abe01a49d743dp-8, 0x1.7d70c898d2524p-8,
        0x1.42045abbc5688p-8, 0x1.f740f44d4b3a4p-9, 0x1.59563b87fd94bp-9,
        0x1.5f517c8bfd40cp-10},
       277, 1866, 21, 0, 0, 0},
      {"heat16 bdf", "heat16", Method::kBdf, 507, 0x1p-1,
       {0x1.5f48e36919aa4p-10, 0x1.594dad9851957p-9, 0x1.f734a298bd4cbp-9,
        0x1.41fc61462ed3bp-8, 0x1.7d67715904ee6p-8, 0x1.abd582ed5aeb7p-8,
        0x1.cbb1d1f6e2686p-8, 0x1.dbe69d9c9253p-8, 0x1.dbe69d9c9253p-8,
        0x1.cbb1d1f6e2686p-8, 0x1.abd582ed5aeb6p-8, 0x1.7d67715904ee5p-8,
        0x1.41fc61462ed39p-8, 0x1.f734a298bd4c4p-9, 0x1.594dad9851954p-9,
        0x1.5f48e36919aa4p-10},
       506, 1025, 7, 0, 0, 45},
      {"heat16 lsoda_like", "heat16", Method::kLsodaLike, 205, 0x1p-1,
       {0x1.5f620bf8f6011p-10, 0x1.5966687e803d8p-9, 0x1.f758ac85d50a4p-9,
        0x1.421370a96b76ep-8, 0x1.7d82c2208dae8p-8, 0x1.abf426f7b924p-8,
        0x1.cbd2be2585aafp-8, 0x1.dc08b2ec80124p-8, 0x1.dc08b2ec80122p-8,
        0x1.cbd2be2585abp-8, 0x1.abf426f7b923fp-8, 0x1.7d82c2208dae9p-8,
        0x1.421370a96b76cp-8, 0x1.f758ac85d50a6p-9, 0x1.5966687e803d6p-9,
        0x1.5f620bf8f6012p-10},
       273, 1649, 18, 0, 6, 27},
  };
  pipeline::CompiledModel heat = compile_heat16();
  const std::vector<MultistepCase> cases = multistep_cases(heat);
  for (const MultistepPin& pin : pins) {
    const auto c =
        std::find_if(cases.begin(), cases.end(), [&](const MultistepCase& k) {
          return std::string(k.name) == pin.problem;
        });
    ASSERT_NE(c, cases.end()) << pin.label;
    const Solution s = solve(c->p, pin.method, c->o);
    EXPECT_EQ(s.size(), pin.rows) << pin.label;
    EXPECT_EQ(s.final_time(), pin.t_end) << pin.label;
    ASSERT_EQ(s.final_state().size(), pin.y_end.size()) << pin.label;
    for (std::size_t i = 0; i < pin.y_end.size(); ++i) {
      EXPECT_EQ(s.final_state()[i], pin.y_end[i]) << pin.label << " y" << i;
    }
    EXPECT_EQ(s.stats.steps, pin.steps) << pin.label;
    EXPECT_EQ(s.stats.rhs_calls, pin.rhs_calls) << pin.label;
    EXPECT_EQ(s.stats.rejected, pin.rejected) << pin.label;
    EXPECT_EQ(s.stats.events, pin.events) << pin.label;
    EXPECT_EQ(s.stats.method_switches, pin.method_switches) << pin.label;
    EXPECT_EQ(s.stats.jac_factorizations, pin.jac_factorizations)
        << pin.label;
  }
}

TEST(Solution, InterpolatesLinearly) {
  Solution s;
  const std::vector<double> a{0.0}, b{10.0};
  s.append(0.0, a);
  s.append(1.0, b);
  EXPECT_DOUBLE_EQ(s.at(0.5)[0], 5.0);
  EXPECT_DOUBLE_EQ(s.at(-1.0)[0], 0.0);   // clamped
  EXPECT_DOUBLE_EQ(s.at(2.0)[0], 10.0);   // clamped
}

// --------------------------------------------------- edge cases

TEST(ProblemValidate, RejectsEmptySystem) {
  Problem p = decay();
  p.n = 0;
  p.y0.clear();
  EXPECT_THROW(p.validate(), omx::Error);
}

TEST(ProblemValidate, RejectsBatchArityMismatch) {
  Problem p = decay();
  p.batch_arity = 2;  // batched kernel says 2 states, problem says 1
  EXPECT_THROW(p.validate(), omx::Error);
  p.batch_arity = 1;
  p.validate();
}

TEST(ProblemValidate, RejectsSparseJacobianWithoutPattern) {
  // A Jacobian's values are laid out on `sparsity`: without it the
  // callback cannot be used, and the solve must say so instead of
  // falling back to finite differences.
  Problem p = decay();
  p.set_sparse_jacobian(
      [](double, std::span<const double>, la::CsrMatrix& j) {
        j.values()[0] = -1.0;
      });
  try {
    p.validate();
    FAIL() << "expected omx::Error";
  } catch (const omx::Error& e) {
    EXPECT_NE(std::string(e.what()).find("sparsity"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(solve(p, Method::kBdf, {}), omx::Error);
  EnsembleSpec spec;
  spec.initial_states = {{1.0}, {0.5}};
  EXPECT_THROW(solve_ensemble(p, Method::kBdf, {}, spec), omx::Error);

  p.sparsity = std::make_shared<const la::SparsityPattern>(
      la::SparsityPattern::dense(1));
  p.validate();
  const Solution s = solve(p, Method::kBdf, {});
  EXPECT_GT(s.stats.jac_calls, 0u);
  EXPECT_NEAR(s.final_state()[0], std::exp(-2.0), 1e-3);
}

/// y' = -y until t = 0.5, then the RHS returns `poison`.
Problem poisoned_decay(double poison) {
  Problem p;
  p.n = 1;
  p.set_rhs([poison](double t, std::span<const double> y,
                     std::span<double> f) {
    f[0] = t < 0.5 ? -y[0] : poison;
  });
  p.t0 = 0.0;
  p.tend = 2.0;
  p.y0 = {1.0};
  return p;
}

void expect_nonfinite_diagnostic(Method m, const SolverOptions& o,
                                 double poison) {
  const Problem p = poisoned_decay(poison);
  try {
    solve(p, m, o);
    FAIL() << "expected omx::Error for poison " << poison;
  } catch (const omx::Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << "diagnostic should name the real cause, got: " << e.what();
  }
}

TEST(SolverDiagnostics, NanRhsFailsWithCleanMessage) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_nonfinite_diagnostic(Method::kExplicitEuler, with_dt(1e-2), nan);
  expect_nonfinite_diagnostic(Method::kRk4, with_dt(1e-2), nan);
  expect_nonfinite_diagnostic(Method::kDopri5, {}, nan);
  expect_nonfinite_diagnostic(Method::kAdamsPece, {}, nan);
}

TEST(SolverDiagnostics, InfRhsFailsWithCleanMessage) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_nonfinite_diagnostic(Method::kExplicitEuler, with_dt(1e-2), inf);
  expect_nonfinite_diagnostic(Method::kRk4, with_dt(1e-2), inf);
  expect_nonfinite_diagnostic(Method::kDopri5, {}, inf);
}

// ------------------------------------------------ ensemble driver
//
// solve_ensemble's scenario lanes are independent, so degenerate specs
// must reproduce plain ode::solve bit for bit — not just to tolerance.

void expect_solutions_identical(const Solution& a, const Solution& b) {
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b.time(i), a.time(i)) << "step " << i;
    const auto ya = a.state(i);
    const auto yb = b.state(i);
    ASSERT_EQ(yb.size(), ya.size());
    for (std::size_t q = 0; q < ya.size(); ++q) {
      EXPECT_EQ(yb[q], ya[q]) << "step " << i << " slot " << q;
    }
  }
  EXPECT_EQ(b.stats.steps, a.stats.steps);
  EXPECT_EQ(b.stats.rhs_calls, a.stats.rhs_calls);
  EXPECT_EQ(b.stats.rejected, a.stats.rejected);
}

TEST(Ensemble, ZeroScenariosYieldEmptyResult) {
  const EnsembleResult r =
      solve_ensemble(decay(), Method::kDopri5, {}, EnsembleSpec{});
  EXPECT_TRUE(r.solutions.empty());
}

TEST(Ensemble, OneScenarioDegeneratesToPlainSolve) {
  const Problem p = oscillator(3.0);
  for (const Method m :
       {Method::kExplicitEuler, Method::kRk4, Method::kDopri5}) {
    const SolverOptions o = with_dt(1e-3);
    const Solution plain = solve(p, m, o);
    EnsembleSpec spec;
    spec.initial_states = {p.y0};
    spec.max_batch = 4;
    const EnsembleResult r = solve_ensemble(p, m, o, spec);
    ASSERT_EQ(r.solutions.size(), 1u);
    expect_solutions_identical(plain, r.solutions[0]);
  }
}

// An attached EventSpec without functions arms nothing: solve must take
// the same step-counted grid walk as without a spec, and as the
// one-scenario ensemble (decay, dt = 0.1 to t = 1: ten steps, the last
// ending one ulp short of tend).
TEST(Ensemble, EmptyEventSpecMatchesNoSpecAndEnsemble) {
  Problem plain = decay();
  plain.tend = 1.0;
  Problem empty = plain;
  empty.events = std::make_shared<EventSpec>();
  const SolverOptions o = with_dt(0.1);
  for (const Method m : {Method::kExplicitEuler, Method::kRk4}) {
    const Solution want = solve(plain, m, o);
    EXPECT_EQ(want.stats.steps, 10u) << to_string(m);
    expect_solutions_identical(want, solve(empty, m, o));
    EnsembleSpec spec;
    spec.initial_states = {empty.y0};
    const EnsembleResult r = solve_ensemble(empty, m, o, spec);
    ASSERT_EQ(r.solutions.size(), 1u);
    expect_solutions_identical(want, r.solutions[0]);
  }
}

TEST(Ensemble, ScenariosMatchIndividualSolves) {
  // Perturbed starts give every scenario its own adaptive step history,
  // so lanes retire at different rounds and the batch repacks mid-run.
  const Problem base = oscillator(4.0);
  EnsembleSpec spec;
  for (std::size_t s = 0; s < 5; ++s) {
    spec.initial_states.push_back(
        {1.0 + 0.2 * static_cast<double>(s),
         0.05 * static_cast<double>(s)});
  }
  spec.workers = 2;
  spec.max_batch = 3;
  const EnsembleResult r =
      solve_ensemble(base, Method::kDopri5, {}, spec);
  ASSERT_EQ(r.solutions.size(), spec.initial_states.size());
  for (std::size_t s = 0; s < spec.initial_states.size(); ++s) {
    Problem p = base;
    p.y0 = spec.initial_states[s];
    expect_solutions_identical(solve(p, Method::kDopri5, {}),
                               r.solutions[s]);
  }
}

// The multistep methods run as one-lane batches per worker; each lane
// must still reproduce its plain solve bitwise, switches included.
TEST(Ensemble, MultistepLanesMatchIndividualSolves) {
  const Problem bases[] = {oscillator(2.0), stiff_tracking(0.5)};
  for (const Problem& base : bases) {
    EnsembleSpec spec;
    for (std::size_t s = 0; s < 3; ++s) {
      const double d = static_cast<double>(s);
      spec.initial_states.push_back(base.n == 2
                                        ? std::vector<double>{1.0 - 0.5 * d,
                                                              0.25 * d}
                                        : std::vector<double>{0.1 * d});
    }
    for (const Method m :
         {Method::kAdamsPece, Method::kBdf, Method::kLsodaLike}) {
      for (const std::size_t workers : {1u, 2u}) {
        spec.workers = workers;
        const EnsembleResult r = solve_ensemble(base, m, {}, spec);
        ASSERT_EQ(r.solutions.size(), 3u);
        for (std::size_t s = 0; s < 3; ++s) {
          SCOPED_TRACE(std::string(to_string(m)) + ", " +
                       std::to_string(workers) + " workers, scenario " +
                       std::to_string(s));
          Problem p = base;
          p.y0 = spec.initial_states[s];
          const Solution want = solve(p, m, {});
          expect_solutions_identical(want, r.solutions[s]);
          EXPECT_EQ(r.solutions[s].stats.method_switches,
                    want.stats.method_switches);
        }
      }
    }
  }
}

TEST(Ensemble, FlightRecorderStaysWithinRingBudgetAt256Scenarios) {
  // The ISSUE acceptance bar: a 256-scenario ensemble with the flight
  // recorder armed must fit the per-thread step-event cap (no drops), and
  // every scenario's pack and retire must be on the log.
  obs::TraceBuffer& rec = obs::TraceBuffer::global();
  rec.start(obs::TraceBuffer::kSteps);
  const Problem base = oscillator(2.0);
  EnsembleSpec spec;
  for (std::size_t s = 0; s < 256; ++s) {
    spec.initial_states.push_back(
        {1.0 + 0.01 * static_cast<double>(s),
         -0.5 + 0.005 * static_cast<double>(s)});
  }
  spec.workers = 4;
  spec.max_batch = 16;
  const EnsembleResult r =
      solve_ensemble(base, Method::kDopri5, {}, spec);
  rec.stop();
  ASSERT_EQ(r.solutions.size(), 256u);

  EXPECT_EQ(rec.dropped(), 0u) << "ensemble run overflowed the step-event cap";
  std::size_t packs = 0;
  std::size_t retires = 0;
  std::size_t refills = 0;
  for (const obs::StepEvent& ev : rec.step_events()) {
    switch (ev.kind) {
      case obs::StepEventKind::kLanePack: ++packs; break;
      case obs::StepEventKind::kLaneRefill: ++refills; break;
      case obs::StepEventKind::kLaneRetire: ++retires; break;
      default: break;
    }
  }
  // Every scenario enters a batch exactly once (first fill or mid-run
  // refill) and leaves exactly once.
  EXPECT_EQ(packs + refills, 256u);
  EXPECT_EQ(retires, 256u);
  EXPECT_GT(refills, 0u) << "staggered retirement never refilled a lane";
}

TEST(Ensemble, WorkerTopsUpFromItsOwnDealOnly) {
  // The semi-dynamic fill rule: 8 scenarios on 2 workers are dealt 4
  // each, and a worker steals only once its batch is empty. So however
  // the threads start, no batch holds more than 4 lanes: a thread that
  // starts first must not take its sibling's deal into a 7+1 split.
  obs::TraceBuffer& rec = obs::TraceBuffer::global();
  rec.start(obs::TraceBuffer::kSteps);
  const Problem base = oscillator(2.0);
  EnsembleSpec spec;
  for (std::size_t s = 0; s < 8; ++s) {
    spec.initial_states.push_back({1.0 + 0.1 * static_cast<double>(s), 0.0});
  }
  spec.workers = 2;
  spec.max_batch = 16;
  const EnsembleResult r = solve_ensemble(base, Method::kDopri5, {}, spec);
  rec.stop();
  ASSERT_EQ(r.solutions.size(), 8u);
  ASSERT_EQ(rec.dropped(), 0u);

  // Each thread's lane events are in its own order: count its live lanes.
  std::map<std::uint32_t, std::size_t> live, widest;
  std::size_t joined = 0;
  for (const obs::StepEvent& ev : rec.step_events()) {
    switch (ev.kind) {
      case obs::StepEventKind::kLanePack:
      case obs::StepEventKind::kLaneRefill:
        ++joined;
        widest[ev.tid] = std::max(widest[ev.tid], ++live[ev.tid]);
        break;
      case obs::StepEventKind::kLaneRetire:
      case obs::StepEventKind::kLaneEventStop:
        --live[ev.tid];
        break;
      default: break;
    }
  }
  EXPECT_EQ(joined, 8u);
  for (const auto& [tid, width] : widest) {
    EXPECT_LE(width, 4u) << "thread " << tid << " ran a batch of " << width;
  }
}

TEST(Ensemble, RejectsMismatchedScenarioSize) {
  EnsembleSpec spec;
  spec.initial_states = {{1.0, 0.0}, {1.0}};  // second lane has wrong n
  EXPECT_THROW(solve_ensemble(oscillator(1.0), Method::kRk4, with_dt(1e-2),
                              spec),
               omx::Error);
}

TEST(Solution, RecordEveryThinsOutput) {
  const Problem p = decay();
  SolverOptions all = with_dt(1e-3);
  all.record_every = 1;
  SolverOptions thin = with_dt(1e-3);
  thin.record_every = 100;
  const Solution sa = solve(p, Method::kExplicitEuler, all);
  const Solution st = solve(p, Method::kExplicitEuler, thin);
  EXPECT_GT(sa.size(), 50u * st.size());
  EXPECT_DOUBLE_EQ(sa.final_time(), st.final_time());
}

TEST(Solution, ZeroRecordEveryIsRejected) {
  // record_every is a divisor of the step count: 0 must be an error, not
  // an integer division by zero.
  SolverOptions o = with_dt(1e-2);
  o.record_every = 0;
  EnsembleSpec spec;
  spec.initial_states = {{1.0}, {0.5}};
  for (const Method m :
       {Method::kExplicitEuler, Method::kRk4, Method::kDopri5,
        Method::kAdamsPece, Method::kBdf, Method::kLsodaLike}) {
    SCOPED_TRACE(to_string(m));
    EXPECT_THROW(solve(decay(), m, o), omx::Error);
    EXPECT_THROW(solve_ensemble(decay(), m, o, spec), omx::Error);
  }
}

// ------------------------------------------------------ dense output
// The public interpolants behind event localization (ode/events.hpp).

/// One DOPRI5 step of y' = f from (t, y), returning the stages the
/// continuous extension consumes. Standard Dormand–Prince tableau.
struct DpStep {
  double y1 = 0.0;
  double k1 = 0.0, k3 = 0.0, k4 = 0.0, k5 = 0.0, k6 = 0.0, k7 = 0.0;
};

template <typename F>
DpStep dopri5_step(F f, double t, double y, double h) {
  DpStep s;
  s.k1 = f(t, y);
  const double k2 = f(t + h / 5.0, y + h * (s.k1 / 5.0));
  s.k3 = f(t + 3.0 * h / 10.0, y + h * (3.0 / 40.0 * s.k1 + 9.0 / 40.0 * k2));
  s.k4 = f(t + 4.0 * h / 5.0,
           y + h * (44.0 / 45.0 * s.k1 - 56.0 / 15.0 * k2 + 32.0 / 9.0 * s.k3));
  s.k5 = f(t + 8.0 * h / 9.0,
           y + h * (19372.0 / 6561.0 * s.k1 - 25360.0 / 2187.0 * k2 +
                    64448.0 / 6561.0 * s.k3 - 212.0 / 729.0 * s.k4));
  s.k6 = f(t + h,
           y + h * (9017.0 / 3168.0 * s.k1 - 355.0 / 33.0 * k2 +
                    46732.0 / 5247.0 * s.k3 + 49.0 / 176.0 * s.k4 -
                    5103.0 / 18656.0 * s.k5));
  s.y1 = y + h * (35.0 / 384.0 * s.k1 + 500.0 / 1113.0 * s.k3 +
                  125.0 / 192.0 * s.k4 - 2187.0 / 6784.0 * s.k5 +
                  11.0 / 84.0 * s.k6);
  s.k7 = f(t + h, s.y1);
  return s;
}

/// Max interpolation error of the dopri5 continuous extension against
/// exp(t) over one step of size h from t = 0.
double dopri5_dense_error(double h) {
  auto f = [](double, double y) { return y; };
  const DpStep s = dopri5_step(f, 0.0, 1.0, h);
  const double y0[] = {1.0};
  const double y1[] = {s.y1};
  const double k1[] = {s.k1}, k3[] = {s.k3}, k4[] = {s.k4}, k5[] = {s.k5},
               k6[] = {s.k6}, k7[] = {s.k7};
  const DenseOutput dense =
      DenseOutput::dopri5(0.0, h, y0, y1, k1, k3, k4, k5, k6, k7);
  double worst = 0.0;
  double out[1];
  for (int i = 1; i < 10; ++i) {
    const double t = h * i / 10.0;
    dense.eval(t, out);
    worst = std::max(worst, std::fabs(out[0] - std::exp(t)));
  }
  return worst;
}

TEST(DenseOutput, Dopri5ContinuousExtensionIsFourthOrder) {
  // A 4th-order interpolant has O(h^5) error: halving h must shrink the
  // worst in-step error by ~2^5. Pin > 20 to allow endpoint effects.
  const double e1 = dopri5_dense_error(0.4);
  const double e2 = dopri5_dense_error(0.2);
  const double e3 = dopri5_dense_error(0.1);
  EXPECT_GT(e1 / e2, 20.0);
  EXPECT_GT(e2 / e3, 20.0);
  // Interpolation stays within a modest multiple of the step error.
  EXPECT_LT(e3, 1e-8);
  // Endpoints reproduce the step exactly.
  const DpStep s = dopri5_step([](double, double y) { return y; },
                               0.0, 1.0, 0.1);
  const double y0[] = {1.0};
  const double y1[] = {s.y1};
  const double k1[] = {s.k1}, k3[] = {s.k3}, k4[] = {s.k4}, k5[] = {s.k5},
               k6[] = {s.k6}, k7[] = {s.k7};
  const DenseOutput d =
      DenseOutput::dopri5(0.0, 0.1, y0, y1, k1, k3, k4, k5, k6, k7);
  double out[1];
  d.eval(0.0, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  d.eval(0.1, out);
  EXPECT_DOUBLE_EQ(out[0], s.y1);
  EXPECT_DOUBLE_EQ(d.t0(), 0.0);
  EXPECT_DOUBLE_EQ(d.t1(), 0.1);
}

TEST(DenseOutput, HermiteReproducesCubicsExactly) {
  // y = t^3 - 2t: cubic Hermite data at t=0 and t=2.
  auto y = [](double t) { return t * t * t - 2.0 * t; };
  auto dy = [](double t) { return 3.0 * t * t - 2.0; };
  const double y0[] = {y(0.0)}, f0[] = {dy(0.0)};
  const double y1[] = {y(2.0)}, f1[] = {dy(2.0)};
  const DenseOutput d = DenseOutput::hermite(0.0, y0, f0, 2.0, y1, f1);
  double out[1];
  for (double t : {0.0, 0.37, 1.0, 1.73, 2.0}) {
    d.eval(t, out);
    EXPECT_NEAR(out[0], y(t), 1e-13) << "t=" << t;
  }
}

TEST(DenseOutput, LagrangeReproducesHistoryPolynomial) {
  // Three uniform nodes (newest first at t=1, spacing 0.25) of a
  // quadratic: the 3-point Lagrange form is exact everywhere between.
  auto y = [](double t) { return 2.0 * t * t - t + 0.5; };
  std::vector<std::vector<double>> hist = {
      {y(1.0)}, {y(0.75)}, {y(0.5)}};
  const DenseOutput d = DenseOutput::lagrange(1.0, 0.25, hist, 3);
  double out[1];
  for (double t : {0.5, 0.6, 0.75, 0.9, 1.0}) {
    d.eval(t, out);
    EXPECT_NEAR(out[0], y(t), 1e-13) << "t=" << t;
  }
}

}  // namespace
}  // namespace omx::ode
