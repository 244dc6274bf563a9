// Hybrid-model ensemble suite: event-carrying scenarios through
// solve_ensemble must reproduce the sequential per-scenario solves
// bitwise, stay deterministic across worker counts and batch widths,
// retire lanes independently at terminal events, and keep the lane
// accounting metrics distinct. The *Stress suites run under TSan via
// scripts/ci.sh (the Event|Hybrid filter) with event-desynchronized
// lanes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "omx/models/coupled_osc.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/obs/trace.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/ensemble.hpp"

namespace omx::ode {
namespace {

/// 64 drop heights — every lane bounces on its own schedule, so batches
/// desynchronize immediately.
EnsembleSpec ball_spec(std::size_t count, std::size_t workers,
                       std::size_t max_batch) {
  EnsembleSpec spec;
  spec.workers = workers;
  spec.max_batch = max_batch;
  for (std::size_t i = 0; i < count; ++i) {
    spec.initial_states.push_back(
        {0.5 + 0.03 * static_cast<double>(i), 0.0});
  }
  return spec;
}

bool bitwise_equal(const Solution& a, const Solution& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ta = a.time(i);
    const double tb = b.time(i);
    if (std::memcmp(&ta, &tb, sizeof(double)) != 0) {
      return false;
    }
    const std::span<const double> ya = a.state(i);
    const std::span<const double> yb = b.state(i);
    if (std::memcmp(ya.data(), yb.data(), ya.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

void expect_ensemble_matches_sequential(Method method, double dt = 1e-3) {
  const models::BouncingBall cfg;
  const Problem base = models::bouncing_ball_problem(cfg, 1.8);
  const EnsembleSpec spec = ball_spec(64, 4, 16);
  SolverOptions o;
  o.dt = dt;
  const EnsembleResult r = solve_ensemble(base, method, o, spec);
  ASSERT_EQ(r.solutions.size(), spec.initial_states.size());
  for (std::size_t i = 0; i < spec.initial_states.size(); ++i) {
    Problem p = base;
    p.y0 = spec.initial_states[i];
    const Solution want = solve(p, method, o);
    EXPECT_TRUE(bitwise_equal(r.solutions[i], want))
        << to_string(method) << " scenario " << i;
    EXPECT_GT(r.solutions[i].stats.events, 0u) << "scenario " << i;
  }
}

/// `p` with a batched RHS that evaluates every lane's column through
/// p.rhs: lane-independent by construction, so the ensemble's stage
/// arithmetic on its SoA lane blocks is all that can move a bit.
Problem with_batch_rhs(Problem p) {
  auto scalar = std::make_shared<Problem>(p);
  p.set_batch_rhs([scalar](std::size_t, std::size_t nb, const double* t,
                           const double* y, double* f) {
    const std::size_t n = scalar->n;
    thread_local std::vector<double> yl, fl;
    yl.resize(n);
    fl.resize(n);
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        yl[i] = y[i * nb + j];
      }
      scalar->rhs(t[j], yl, fl);
      for (std::size_t i = 0; i < n; ++i) {
        f[i * nb + j] = fl[i];
      }
    }
  });
  return p;
}

/// A pendulum: DOPRI5 lanes of different swing take different step
/// counts, so they retire at different rounds.
Problem pendulum() {
  Problem p;
  p.n = 2;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[1];
    f[1] = -std::sin(y[0]);
  });
  p.tend = 3.0;
  p.y0 = {0.1, 0.0};
  return p;
}

TEST(LaneBlock, WidthSweepMatchesSequentialBitwise) {
  // Every width the block can run at (1, odd, a vector block, two), one
  // and two workers, and both record cadences. The terminal ball retires
  // lanes at their first bounce and the pendulum's DOPRI5 lanes at their
  // own step counts, so slots are refilled in place, and the block
  // re-strides once the deal runs out.
  const models::BouncingBall cfg;
  struct Case {
    const char* label;
    Problem p;
    std::vector<std::vector<double>> y0;
  };
  std::vector<Case> cases;
  std::vector<std::vector<double>> drops, swings;
  for (std::size_t i = 0; i < 20; ++i) {
    drops.push_back({0.5 + 0.07 * static_cast<double>(i), 0.0});
    swings.push_back({0.1 + 0.14 * static_cast<double>(i), 0.0});
  }
  cases.push_back({"ball", models::bouncing_ball_problem(cfg, 1.8), drops});
  cases.push_back({"terminal ball",
                   models::bouncing_ball_problem(cfg, 1.8, true), drops});
  cases.push_back({"pendulum", pendulum(), swings});
  for (const Case& c : cases) {
    const Problem batched = with_batch_rhs(c.p);
    for (const Method m :
         {Method::kDopri5, Method::kRk4, Method::kExplicitEuler}) {
      for (const std::size_t every : {1, 3}) {
        SolverOptions o;
        o.dt = 2e-3;
        o.record_every = every;
        std::vector<Solution> want;
        for (const std::vector<double>& y0 : c.y0) {
          Problem p = c.p;
          p.y0 = y0;
          want.push_back(solve(p, m, o));
        }
        for (const std::size_t workers : {1, 2}) {
          for (const std::size_t width : {1, 3, 8, 16}) {
            EnsembleSpec spec;
            spec.initial_states = c.y0;
            spec.workers = workers;
            spec.max_batch = width;
            const EnsembleResult r = solve_ensemble(batched, m, o, spec);
            for (std::size_t i = 0; i < c.y0.size(); ++i) {
              const Solution& got = r.solutions[i];
              EXPECT_TRUE(bitwise_equal(got, want[i]) &&
                          got.stats.rhs_calls == want[i].stats.rhs_calls &&
                          got.stats.rejected == want[i].stats.rejected)
                  << c.label << " " << to_string(m) << " every " << every
                  << ", " << workers << " workers, batch " << width
                  << ", scenario " << i;
            }
          }
        }
      }
    }
  }
}

TEST(HybridEnsemble, Dopri5BitwiseMatchesSequentialSolves) {
  expect_ensemble_matches_sequential(Method::kDopri5);
}

TEST(HybridEnsemble, FixedStepFallbackBitwiseMatchesSequentialSolves) {
  // Event-carrying fixed-step lanes run batched, each walking to tend on
  // its own event-shifted grid; they must still reproduce plain solve
  // bitwise.
  expect_ensemble_matches_sequential(Method::kRk4, 2e-3);
  expect_ensemble_matches_sequential(Method::kExplicitEuler, 2e-3);
}

TEST(HybridEnsemble, StiffMethodsMatchSequentialSolves) {
  const models::SwitchingChemistry cfg;
  const double ts = models::switching_chemistry_switch_time(cfg);
  const Problem base = models::switching_chemistry_problem(cfg, ts + 0.3);
  EnsembleSpec spec;
  spec.workers = 4;
  spec.max_batch = 8;
  for (std::size_t i = 0; i < 16; ++i) {
    spec.initial_states.push_back(
        {cfg.y0 + 0.01 * static_cast<double>(i), cfg.k_slow});
  }
  SolverOptions o;
  o.tol = {1e-8, 1e-10};
  const EnsembleResult r = solve_ensemble(base, Method::kBdf, o, spec);
  for (std::size_t i = 0; i < spec.initial_states.size(); ++i) {
    Problem p = base;
    p.y0 = spec.initial_states[i];
    const Solution want = solve(p, Method::kBdf, o);
    EXPECT_TRUE(bitwise_equal(r.solutions[i], want)) << "scenario " << i;
    EXPECT_EQ(r.solutions[i].stats.events, 1u) << "scenario " << i;
  }
}

TEST(HybridEnsemble, DeterministicAcrossWorkersAndBatchWidths) {
  const models::BouncingBall cfg;
  const Problem base = models::bouncing_ball_problem(cfg, 1.8);
  SolverOptions o;
  const EnsembleResult ref =
      solve_ensemble(base, Method::kDopri5, o, ball_spec(64, 1, 1));
  const std::size_t workers[] = {2, 4, 8};
  const std::size_t widths[] = {4, 16, 64};
  for (std::size_t c = 0; c < 3; ++c) {
    const EnsembleResult got = solve_ensemble(
        base, Method::kDopri5, o, ball_spec(64, workers[c], widths[c]));
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(bitwise_equal(got.solutions[i], ref.solutions[i]))
          << workers[c] << " workers, batch " << widths[c] << ", scenario "
          << i;
    }
  }
}

TEST(HybridEnsemble, TerminalEventsRetireLanesIndependently) {
  obs::set_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t retired0 =
      reg.counter("ensemble.lanes_retired").value();
  const std::uint64_t stopped0 =
      reg.counter("ensemble.lanes_event_stopped").value();
  const std::uint64_t cancelled0 =
      reg.counter("ensemble.lanes_cancelled").value();

  const models::BouncingBall cfg;
  const Problem base =
      models::bouncing_ball_problem(cfg, 5.0, /*terminal=*/true);
  const EnsembleSpec spec = ball_spec(32, 4, 8);
  const EnsembleResult r =
      solve_ensemble(base, Method::kDopri5, {}, spec);
  for (std::size_t i = 0; i < 32; ++i) {
    const double h0 = spec.initial_states[i][0];
    EXPECT_NEAR(r.solutions[i].final_time(),
                std::sqrt(2.0 * h0 / cfg.g), 1e-6)
        << "scenario " << i;
    EXPECT_EQ(r.solutions[i].stats.events_terminal, 1u);
  }
  // Every lane retired, all of them at an event; none were cancelled —
  // the three counters stay distinct (no aliasing).
  EXPECT_EQ(reg.counter("ensemble.lanes_retired").value() - retired0, 32u);
  EXPECT_EQ(reg.counter("ensemble.lanes_event_stopped").value() - stopped0,
            32u);
  EXPECT_EQ(reg.counter("ensemble.lanes_cancelled").value() - cancelled0,
            0u);
}

// A multistep lane stopped by a terminal event reports its stop at the
// event time, which is where its trajectory ends, not at tend.
TEST(HybridEnsemble, BdfLanesReportEventStopsAtTheirFinalTime) {
  obs::TraceBuffer& rec = obs::TraceBuffer::global();
  rec.start(obs::TraceBuffer::kSteps);
  const models::BouncingBall cfg;
  const Problem base =
      models::bouncing_ball_problem(cfg, 5.0, /*terminal=*/true);
  const EnsembleSpec spec = ball_spec(8, 2, 8);
  const EnsembleResult r = solve_ensemble(base, Method::kBdf, {}, spec);
  rec.stop();
  std::vector<int> stops(spec.initial_states.size(), 0);
  for (const obs::StepEvent& ev : rec.step_events()) {
    if (ev.kind != obs::StepEventKind::kLaneEventStop) {
      continue;
    }
    ASSERT_LT(ev.lane, stops.size());
    ++stops[ev.lane];
    EXPECT_EQ(ev.t, r.solutions[ev.lane].final_time())
        << "scenario " << ev.lane;
    EXPECT_LT(ev.t, base.tend) << "scenario " << ev.lane;
  }
  for (std::size_t i = 0; i < stops.size(); ++i) {
    EXPECT_EQ(stops[i], 1) << "scenario " << i;
    EXPECT_EQ(r.solutions[i].stats.events_terminal, 1u) << "scenario " << i;
  }
}

TEST(HybridEnsemble, NonTerminalRunsRetireWithoutEventStops) {
  obs::set_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t retired0 =
      reg.counter("ensemble.lanes_retired").value();
  const std::uint64_t stopped0 =
      reg.counter("ensemble.lanes_event_stopped").value();

  const models::BouncingBall cfg;
  const Problem base = models::bouncing_ball_problem(cfg, 1.0);
  solve_ensemble(base, Method::kDopri5, {}, ball_spec(8, 2, 4));
  EXPECT_EQ(reg.counter("ensemble.lanes_retired").value() - retired0, 8u);
  EXPECT_EQ(reg.counter("ensemble.lanes_event_stopped").value() - stopped0,
            0u);
}

TEST(HybridEnsembleStress, EventDesynchronizedLanesUnderContention) {
  // Kuramoto ring with a terminal synchronization event: perturbed
  // initial phases lock at different times, so lanes retire out of
  // order while workers steal and repack batches — the TSan target.
  models::CoupledOscillators cfg;
  cfg.sync_threshold = 0.95;
  const Problem base = models::coupled_osc_problem(cfg, 30.0);
  EnsembleSpec spec;
  spec.workers = 8;
  spec.max_batch = 8;
  for (std::size_t i = 0; i < 48; ++i) {
    std::vector<double> y0 = base.y0;
    for (std::size_t j = 0; j < y0.size(); ++j) {
      y0[j] += 0.02 * static_cast<double>((i * 7 + j * 3) % 11);
    }
    spec.initial_states.push_back(std::move(y0));
  }
  SolverOptions o;
  o.tol = {1e-7, 1e-9};
  const EnsembleResult r = solve_ensemble(base, Method::kDopri5, o, spec);

  std::size_t stopped_early = 0;
  for (const Solution& s : r.solutions) {
    ASSERT_GT(s.size(), 0u);
    if (s.stats.events_terminal > 0) {
      ++stopped_early;
      EXPECT_LT(s.final_time(), 30.0);
      EXPECT_GE(models::kuramoto_order(s.final_state()),
                cfg.sync_threshold - 1e-6);
    }
  }
  // Strong ring coupling locks the network well before tend.
  EXPECT_GT(stopped_early, 0u);

  // Determinism holds under contention too.
  const EnsembleResult again =
      solve_ensemble(base, Method::kDopri5, o, spec);
  for (std::size_t i = 0; i < r.solutions.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(r.solutions[i], again.solutions[i]))
        << "scenario " << i;
  }
}

}  // namespace
}  // namespace omx::ode
