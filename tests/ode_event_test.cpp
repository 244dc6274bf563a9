// Event handling differential suite: localized event times pinned
// against analytic crossings for every solver method, cross-backend
// agreement through the pipeline, integrator restart behaviour (BDF
// Jacobian refresh after an event), terminal events, Zeno protection,
// and the event telemetry surface.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "omx/models/hybrid.hpp"
#include "omx/obs/trace.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace omx::ode {
namespace {

/// Event rows are appended as a pre/post pair sharing the localized
/// time; every other accepted row is strictly increasing. Returns the
/// shared times.
std::vector<double> event_times(const Solution& s) {
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (s.time(i) == s.time(i + 1)) {
      out.push_back(s.time(i));
    }
  }
  return out;
}

void expect_times_match(const std::vector<double>& got,
                        const std::vector<double>& want, double tol,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << label << " event " << i;
  }
}

struct MethodCase {
  Method method;
  double tol;  // event-time tolerance vs analytic
};

// The ball's flight arcs are quadratics, so every interpolant in play
// (DOPRI5 quartic, cubic Hermite, BDF Lagrange) represents them up to
// the solver's own state error; the per-method tolerance tracks that
// state error, not the interpolant order.
TEST(EventDiff, BouncingBallTimesMatchAnalyticAcrossMethods) {
  const models::BouncingBall cfg;
  const double tend = 2.2;
  const std::vector<double> want =
      models::bouncing_ball_bounce_times(cfg, tend);
  ASSERT_GE(want.size(), 3u);  // several bounces in range

  const MethodCase cases[] = {
      {Method::kExplicitEuler, 2e-2}, {Method::kRk4, 1e-8},
      {Method::kDopri5, 1e-7},        {Method::kAdamsPece, 1e-5},
      {Method::kBdf, 1e-3},           {Method::kLsodaLike, 1e-3},
  };
  for (const MethodCase& mc : cases) {
    const Problem p = models::bouncing_ball_problem(cfg, tend);
    SolverOptions o;
    o.dt = 1e-3;
    o.tol = {1e-9, 1e-9};
    const Solution s = solve(p, mc.method, o);
    expect_times_match(event_times(s), want, mc.tol, to_string(mc.method));
    EXPECT_EQ(s.stats.events, want.size()) << to_string(mc.method);
    EXPECT_EQ(s.stats.events_terminal, 0u) << to_string(mc.method);
    // Post-bounce velocity flips sign: the ball keeps bouncing, so the
    // final height stays in [0, h0].
    EXPECT_GE(s.final_state()[0], -1e-6) << to_string(mc.method);
  }
}

TEST(EventDiff, CoulombOscillatorStopsAtVelocityZeros) {
  const models::CoulombOscillator cfg;
  const double tend = 10.0;
  const std::vector<double> want = models::coulomb_event_times(cfg, tend);
  ASSERT_GE(want.size(), 2u);
  for (const Method m : {Method::kDopri5, Method::kAdamsPece}) {
    const Problem p = models::coulomb_oscillator_problem(cfg, tend);
    SolverOptions o;
    o.tol = {1e-10, 1e-10};
    const Solution s = solve(p, m, o);
    expect_times_match(event_times(s), want, 1e-5, to_string(m));
    // The friction mode flips at every event.
    EXPECT_EQ(s.final_state()[2], want.size() % 2 == 0 ? -1.0 : 1.0);
  }
}

TEST(EventDiff, EventTimesAgreeAcrossExecutionBackends) {
  // Guards and resets evaluate through the expression pool regardless of
  // how the RHS runs, so every backend localizes the same crossings.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) { return models::build_bouncing_ball(ctx); });
  const double tend = 1.5;
  const models::BouncingBall cfg;  // matches bouncing_ball_source()
  const std::vector<double> want =
      models::bouncing_ball_bounce_times(cfg, tend);
  ASSERT_FALSE(want.empty());

  std::vector<std::vector<double>> per_backend;
  for (const exec::Backend b : {exec::Backend::kReference,
                                exec::Backend::kInterp,
                                exec::Backend::kNative}) {
    const Problem p = cm.make_problem(b, 0.0, tend);
    ASSERT_NE(p.events, nullptr);
    SolverOptions o;
    o.tol = {1e-10, 1e-10};
    const Solution s = solve(p, Method::kDopri5, o);
    per_backend.push_back(event_times(s));
    expect_times_match(per_backend.back(), want, 1e-7,
                       std::string("backend ") + std::to_string(int(b)));
  }
  for (std::size_t i = 1; i < per_backend.size(); ++i) {
    ASSERT_EQ(per_backend[i].size(), per_backend[0].size());
    for (std::size_t k = 0; k < per_backend[0].size(); ++k) {
      EXPECT_NEAR(per_backend[i][k], per_backend[0][k], 1e-9);
    }
  }
}

TEST(EventRestart, BdfReevaluatesJacobianAfterEvent) {
  // Switching chemistry turns stiff at the event (k: 1 -> 1e4); a BDF
  // restart that kept the pre-event Jacobian would mis-iterate Newton.
  // The flight recorder pins the refresh: a kJacEvaluate must land at or
  // after the localized event time.
  const models::SwitchingChemistry cfg;
  const double ts = models::switching_chemistry_switch_time(cfg);
  const Problem p = models::switching_chemistry_problem(cfg, ts + 0.3);
  SolverOptions o;
  o.tol = {1e-8, 1e-10};

  obs::TraceBuffer& rec = obs::TraceBuffer::global();
  rec.start(obs::TraceBuffer::kSteps);
  const Solution s = solve(p, Method::kBdf, o);
  rec.stop();

  ASSERT_EQ(s.stats.events, 1u);
  const std::vector<double> times = event_times(s);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_NEAR(times[0], ts, 1e-4);

  bool event_seen = false;
  bool jac_after_event = false;
  for (const obs::StepEvent& ev : rec.step_events()) {
    if (ev.kind == obs::StepEventKind::kEvent) {
      event_seen = true;
    } else if (event_seen &&
               ev.kind == obs::StepEventKind::kJacEvaluate) {
      jac_after_event = true;
    }
  }
  EXPECT_TRUE(event_seen);
  EXPECT_TRUE(jac_after_event);
  // The fast mode decays everything within the tail window.
  EXPECT_LT(s.final_state()[0], cfg.threshold);
}

TEST(EventRestart, StiffSwitchSurvivesAllStiffMethods) {
  const models::SwitchingChemistry cfg;
  const double ts = models::switching_chemistry_switch_time(cfg);
  for (const Method m : {Method::kBdf, Method::kLsodaLike}) {
    const Problem p = models::switching_chemistry_problem(cfg, ts + 0.5);
    SolverOptions o;
    o.tol = {1e-8, 1e-10};
    const Solution s = solve(p, m, o);
    EXPECT_EQ(s.stats.events, 1u) << to_string(m);
    EXPECT_NEAR(event_times(s).at(0), ts, 1e-4) << to_string(m);
    EXPECT_GE(s.final_state()[0], 0.0) << to_string(m);
  }
}

TEST(EventTerminal, StopsAtFirstImpactEverywhere) {
  const models::BouncingBall cfg;
  const double t1 = std::sqrt(2.0 * cfg.h0 / cfg.g);
  for (const Method m : {Method::kExplicitEuler, Method::kRk4,
                         Method::kDopri5, Method::kAdamsPece, Method::kBdf,
                         Method::kLsodaLike}) {
    const Problem p =
        models::bouncing_ball_problem(cfg, 5.0, /*terminal=*/true);
    SolverOptions o;
    o.dt = 1e-3;
    o.tol = {1e-9, 1e-9};
    const Solution s = solve(p, m, o);
    EXPECT_EQ(s.stats.events, 1u) << to_string(m);
    EXPECT_EQ(s.stats.events_terminal, 1u) << to_string(m);
    EXPECT_NEAR(s.final_time(), t1, 5e-3) << to_string(m);
    EXPECT_LT(s.final_time(), 5.0) << to_string(m);
  }
}

TEST(EventDirection, FiltersRespectCrossingSign) {
  // Guard sin(t) on y' = 0: rising zeros at 0, 2pi, ...; falling at pi,
  // 3pi. Priming at t=0 caches the exact zero, which must not fire.
  auto make = [](EventDirection dir) {
    Problem p;
    p.n = 1;
    p.y0 = {0.0};
    p.t0 = 0.0;
    p.tend = 7.0;  // covers pi, 2pi
    p.set_rhs([](double, std::span<const double>, std::span<double> f) {
      f[0] = 0.0;
    });
    EventSpec spec;
    EventFunction f;
    f.guard = [](double t, std::span<const double>) { return std::sin(t); };
    f.direction = dir;
    spec.functions.push_back(std::move(f));
    p.events = std::make_shared<const EventSpec>(std::move(spec));
    return p;
  };
  const double pi = std::acos(-1.0);
  SolverOptions o;
  o.tol = {1e-10, 1e-10};
  o.hmax = 0.5;  // keep steps shorter than the half-period

  const Solution both = solve(make(EventDirection::kBoth),
                              Method::kDopri5, o);
  expect_times_match(event_times(both), {pi, 2.0 * pi}, 1e-8, "both");
  const Solution falling = solve(make(EventDirection::kFalling),
                                 Method::kDopri5, o);
  expect_times_match(event_times(falling), {pi}, 1e-8, "falling");
  const Solution rising = solve(make(EventDirection::kRising),
                                Method::kDopri5, o);
  expect_times_match(event_times(rising), {2.0 * pi}, 1e-8, "rising");
}

TEST(EventZeno, AccumulationPointThrowsInsteadOfSpinning) {
  const models::BouncingBall cfg;
  // The bounce times form a geometric series accumulating at
  // t1 * (1 + e) / (1 - e); integrating past it must trip the guard.
  const double t_acc =
      std::sqrt(2.0 * cfg.h0 / cfg.g) * (1.0 + cfg.e) / (1.0 - cfg.e);
  Problem p = models::bouncing_ball_problem(cfg, t_acc + 0.5);
  auto spec = std::make_shared<EventSpec>();
  spec->functions = p.events->functions;
  spec->max_events = 40;
  p.events = spec;
  SolverOptions o;
  o.tol = {1e-12, 1e-12};
  EXPECT_THROW(solve(p, Method::kDopri5, o), omx::Error);
}

TEST(EventTelemetry, CountersPublishFiredAndTerminal) {
  obs::set_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t fired0 = reg.counter("ode.events_fired").value();
  const std::uint64_t term0 = reg.counter("ode.events_terminal").value();

  const models::BouncingBall cfg;
  const Solution s = solve(
      models::bouncing_ball_problem(cfg, 2.2), Method::kDopri5, {});
  const Solution st = solve(
      models::bouncing_ball_problem(cfg, 5.0, true), Method::kDopri5, {});

  EXPECT_EQ(reg.counter("ode.events_fired").value() - fired0,
            s.stats.events + st.stats.events);
  EXPECT_EQ(reg.counter("ode.events_terminal").value() - term0, 1u);
}

}  // namespace
}  // namespace omx::ode
