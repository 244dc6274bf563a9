#include "omx/ode/ensemble.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "omx/la/matrix.hpp"
#include "omx/obs/recorder.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/adams.hpp"
#include "omx/ode/bdf.hpp"
#include "omx/ode/events.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/runtime/task_deque.hpp"
#include "omx/sched/lpt.hpp"
#include "omx/support/simd.hpp"
#include "omx/support/timer.hpp"

namespace omx::ode {

namespace {

// ---------------------------------------------------------------- metrics

obs::Gauge& active_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("ensemble.scenarios_active");
  return g;
}

obs::Histogram& occupancy_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "ensemble.batch_occupancy", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  return h;
}

obs::Histogram& lane_step_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "ensemble.lane_step_seconds", obs::log_spaced_bounds(1e-7, 1e-1));
  return h;
}

obs::Gauge& rate_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("ensemble.rhs_calls_per_sec");
  return g;
}

obs::Counter& jac_plans_built_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.jac_plans_built");
  return c;
}

obs::Counter& jac_plan_reuse_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.jac_plan_reuses");
  return c;
}

obs::Counter& lanes_cancelled_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.lanes_cancelled");
  return c;
}

// Lane-retire accounting keeps its reasons distinct: every finished lane
// (tend reached OR stopped by a terminal event) counts as retired, the
// event-stopped subset is counted again separately, and cancelled lanes
// appear only under lanes_cancelled — the three never alias.
obs::Counter& lanes_retired_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.lanes_retired");
  return c;
}

obs::Counter& lanes_event_stopped_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.lanes_event_stopped");
  return c;
}

// ----------------------------------------------------------- SoA staging

void pack_col(std::span<const double> v, double* soa, std::size_t nb,
              std::size_t j) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    soa[i * nb + j] = v[i];
  }
}

void unpack_col(const double* soa, std::size_t nb, std::size_t j,
                std::span<double> v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = soa[i * nb + j];
  }
}

[[noreturn]] void throw_nonfinite(const char* method, double t) {
  throw omx::Error(std::string(method) +
                   ": non-finite state or RHS at t = " + std::to_string(t));
}

// ----------------------------------------------------------- steppers
//
// The one implementation of every Method. A stepper integrates a set of
// lanes (scenarios) in lockstep: one round() is one step attempt for
// every lane. The explicit steppers fuse each stage's RHS evaluations
// into one batched call. Every lane keeps its own t, h, step control and
// events, and batched kernels are lane-independent, so a lane's
// trajectory is the same whichever lanes share its batch. ode::solve is
// the same stepper with one lane (detail::solve_one_lane).

using Vec = std::vector<double>;

/// Per-scenario state every stepper lane carries.
struct LaneCore {
  std::uint32_t scenario = 0;
  double t = 0.0, h = 0.0;
  bool done = false;           // reached tend, or stopped by an event
  bool event_stopped = false;  // stopped at t by a terminal event
  Vec y;
  EventHandler events;  // per-lane guard-sign cache
  TrajectoryWriter rec;
  SolverStats stats;
};

/// Lane bookkeeping and RHS evaluation shared by the steppers. Lanes are
/// laid out per lane (contiguous y and stage vectors), so dense output,
/// events and FSAL swaps work on spans; a stage packs them into one SoA
/// block only when several lanes share a batched kernel.
///
/// A finished lane is handed to the caller's `on_retire(const LaneCore&)`
/// after its statistics are published and before its trajectory's
/// finish(); the ensemble's lane accounting lives in that hook.
template <typename Lane>
class StepperBase {
 public:
  const Problem& p;
  const SolverOptions& o;
  const char* const method_name;  // literal: step, cancel and error label

  /// Widest batch the stepper takes.
  static constexpr std::size_t kMaxLanes =
      std::numeric_limits<std::size_t>::max();

  std::size_t active() const { return lanes_.size(); }

  /// Drops every lane (cancellation): each writer abandons its partial
  /// chunk and finish() is never sent. `on_drop(scenario, t)` sees each
  /// lane; returns how many there were.
  template <typename OnDrop>
  std::size_t abandon_all(OnDrop on_drop) {
    for (const Lane& L : lanes_) {
      on_drop(L.scenario, L.t);
    }
    const std::size_t n = lanes_.size();
    lanes_.clear();
    return n;
  }

 protected:
  /// `batched`: fuse the lanes of a stage through p.batch_rhs on private
  /// workspace `lane`; otherwise every lane calls p.rhs on its own
  /// vectors.
  StepperBase(const Problem& pp, const SolverOptions& oo, const char* method,
              std::size_t lane, TrajectorySink& sink, bool batched)
      : p(pp),
        o(oo),
        method_name(method),
        sink_(&sink),
        lane_(lane),
        batched_(batched) {}

  /// A lane at (t0, y0) with its initial row recorded and its events
  /// primed; the derived add() sizes its stage vectors.
  Lane make_lane(std::uint32_t scenario, std::span<const double> y0) {
    Lane L;
    L.scenario = scenario;
    L.t = p.t0;
    L.y.assign(y0.begin(), y0.end());
    L.events = EventHandler(p.events, p.n);
    if (L.events.armed()) {
      L.events.prime(L.t, L.y);
    }
    L.rec = TrajectoryWriter(*sink_, scenario, p.n);
    L.rec.append(L.t, L.y);
    return L;
  }

  /// Joins `L` to the batch, or retires it at once when it has nothing
  /// to integrate (a zero-length span). The staging buffers grow with
  /// the widest batch and never shrink, so a round allocates nothing.
  template <typename OnRetire>
  void join(Lane&& L, OnRetire& on_retire) {
    if (L.done) {
      retire(L, on_retire);
      return;
    }
    lanes_.push_back(std::move(L));
    const std::size_t nb = lanes_.size();
    if (ts_.size() < nb) {
      ts_.resize(nb);
      if (batched_) {
        ybuf_.resize(p.n * nb);
        fbuf_.resize(p.n * nb);
      }
    }
  }

  /// Retires the finished lanes and closes the gaps, keeping order.
  template <typename OnRetire>
  void compact(OnRetire& on_retire) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if (lanes_[j].done) {
        retire(lanes_[j], on_retire);
      } else {
        if (w != j) {
          lanes_[w] = std::move(lanes_[j]);
        }
        ++w;
      }
    }
    lanes_.resize(w);
  }

  /// f(t, y) for one lane's contiguous vectors: a width-1 SoA block is
  /// the plain state vector, so nothing is packed.
  void eval_one(double t, std::span<const double> y, std::span<double> f) {
    if (batched_) {
      p.batch_rhs(lane_, 1, &t, y.data(), f.data());
    } else {
      p.rhs(t, y, f);
    }
  }

  /// f(ts_[j], in(lane j)) into out(lane j) for the lanes [j0, active()),
  /// as one batched call when more than one lane shares a batched kernel.
  template <typename In, typename Out>
  void eval(std::size_t j0, In in, Out out) {
    const std::size_t nb = lanes_.size() - j0;
    if (nb == 1 || !batched_) {
      for (std::size_t j = j0; j < lanes_.size(); ++j) {
        eval_one(ts_[j], in(lanes_[j]), out(lanes_[j]));
      }
      return;
    }
    for (std::size_t j = 0; j < nb; ++j) {
      pack_col(in(lanes_[j0 + j]), ybuf_.data(), nb, j);
    }
    p.batch_rhs(lane_, nb, ts_.data() + j0, ybuf_.data(), fbuf_.data());
    for (std::size_t j = 0; j < nb; ++j) {
      unpack_col(fbuf_.data(), nb, j, out(lanes_[j0 + j]));
    }
  }

  std::vector<Lane> lanes_;
  simd::aligned_vector<double> ts_;  // per-lane stage times

 private:
  template <typename OnRetire>
  void retire(Lane& L, OnRetire& on_retire) {
    publish_solver_stats(L.stats);
    on_retire(static_cast<const LaneCore&>(L));
    L.rec.finish(L.stats);
  }

  TrajectorySink* sink_;
  std::size_t lane_;
  bool batched_;
  // SoA staging (64-byte aligned per the simd.hpp contract; the batched
  // kernels' lane loops vectorize over them).
  simd::aligned_vector<double> ybuf_, fbuf_;
};

struct FixedLane : LaneCore {
  std::size_t k = 0;  // grid steps since the start or the last event
  Vec k1, k2, k3, k4, tmp;
  Vec yprev;  // armed lanes: the step's start, for the Hermite interpolant
};

/// kExplicitEuler / kRk4. A lane without armed events takes the
/// step-counted walk over the dt grid (every such lane takes the same
/// number of steps); a lane whose EventHandler is armed walks to tend
/// instead, because an event shifts it off the grid.
class FixedStepper : public StepperBase<FixedLane> {
 public:
  FixedStepper(const Problem& pp, const SolverOptions& oo, Method method,
               std::size_t lane, TrajectorySink& sink, bool batched)
      : StepperBase(pp, oo, to_string(method), lane, sink, batched),
        rk4_(method == Method::kRk4) {
    OMX_REQUIRE(oo.dt > 0.0, "dt must be positive");
    steps_ = static_cast<std::size_t>(
        std::ceil((pp.tend - pp.t0) / oo.dt - 1e-12));
  }

  template <typename OnRetire>
  void add(std::uint32_t scenario, std::span<const double> y0,
           OnRetire& on_retire) {
    FixedLane L = make_lane(scenario, y0);
    for (Vec* v : {&L.k1, &L.k2, &L.k3, &L.k4, &L.tmp}) {
      v->resize(p.n);
    }
    if (L.events.armed()) {
      L.yprev.resize(p.n);
      L.done = !(L.t < p.tend);
    } else {
      L.done = steps_ == 0;
    }
    join(std::move(L), on_retire);
  }

  template <typename OnRetire>
  void round(OnRetire& on_retire) {
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      FixedLane& L = lanes_[j];
      L.h = std::min(o.dt, p.tend - L.t);
      ts_[j] = L.t;
      if (L.events.armed()) {
        std::copy(L.y.begin(), L.y.end(), L.yprev.begin());
      }
    }
    // k1 = f(t, y)
    eval(0, [](FixedLane& L) -> Vec& { return L.y; },
         [](FixedLane& L) -> Vec& { return L.k1; });
    if (rk4_) {
      rk4_stages();
    }
    for (FixedLane& L : lanes_) {
      // A local h: stores into L.y may alias L.h, which would otherwise
      // be reloaded (and h / 6 recomputed) for every element.
      const double h = L.h;
      if (rk4_) {
        L.stats.rhs_calls += 4;
        for (std::size_t i = 0; i < p.n; ++i) {
          L.y[i] += h / 6.0 *
                    (L.k1[i] + 2.0 * L.k2[i] + 2.0 * L.k3[i] + L.k4[i]);
        }
      } else {
        ++L.stats.rhs_calls;
        for (std::size_t i = 0; i < p.n; ++i) {
          L.y[i] += h * L.k1[i];
        }
      }
      const double t_prev = L.t;
      L.t += L.h;
      finish_step(L, t_prev);
    }
    compact(on_retire);
  }

 private:
  void rk4_stages() {
    // k2 = f(t + h/2, y + h/2 k1)
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      FixedLane& L = lanes_[j];
      const double h = L.h;
      for (std::size_t i = 0; i < p.n; ++i) {
        L.tmp[i] = L.y[i] + 0.5 * h * L.k1[i];
      }
      ts_[j] = L.t + 0.5 * h;
    }
    eval(0, [](FixedLane& L) -> Vec& { return L.tmp; },
         [](FixedLane& L) -> Vec& { return L.k2; });
    // k3 = f(t + h/2, y + h/2 k2)
    for (FixedLane& L : lanes_) {
      const double h = L.h;
      for (std::size_t i = 0; i < p.n; ++i) {
        L.tmp[i] = L.y[i] + 0.5 * h * L.k2[i];
      }
    }
    eval(0, [](FixedLane& L) -> Vec& { return L.tmp; },
         [](FixedLane& L) -> Vec& { return L.k3; });
    // k4 = f(t + h, y + h k3)
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      FixedLane& L = lanes_[j];
      const double h = L.h;
      for (std::size_t i = 0; i < p.n; ++i) {
        L.tmp[i] = L.y[i] + h * L.k3[i];
      }
      ts_[j] = L.t + h;
    }
    eval(0, [](FixedLane& L) -> Vec& { return L.tmp; },
         [](FixedLane& L) -> Vec& { return L.k4; });
  }

  void finish_step(FixedLane& L, double t_prev) {
    ++L.stats.steps;
    // No error control would notice a NaN/Inf from the RHS: without this
    // check the lane would integrate garbage to tend.
    for (const double v : L.y) {
      if (!std::isfinite(v)) {
        throw_nonfinite(method_name, L.t);
      }
    }
    if (!L.events.armed()) {
      if (L.k % o.record_every == o.record_every - 1 || L.k + 1 == steps_) {
        L.rec.append(L.t, L.y);
      }
      L.done = ++L.k >= steps_;
      return;
    }
    const EventHandler::Hit hit =
        L.events.check(t_prev, L.t, L.y, method_name, L.stats, [&] {
          // Cubic Hermite over the step; k2/k3 are free once the step is
          // taken and hold the endpoint derivatives.
          eval_one(t_prev, L.yprev, L.k2);
          eval_one(L.t, L.y, L.k3);
          L.stats.rhs_calls += 2;
          return DenseOutput::hermite(t_prev, L.yprev, L.k2, L.t, L.y,
                                      L.k3);
        });
    if (hit.fired) {
      // Resume on a grid anchored at the event time.
      L.t = hit.t;
      L.rec.append(L.t, L.events.pre_state());
      std::copy(L.events.post_state().begin(), L.events.post_state().end(),
                L.y.begin());
      L.rec.append(L.t, L.y);
      L.event_stopped = hit.terminal;
      L.done = hit.terminal || !(L.t < p.tend);
      return;
    }
    if (L.k % o.record_every == o.record_every - 1 || L.t >= p.tend) {
      L.rec.append(L.t, L.y);
    }
    ++L.k;
    L.done = !(L.t < p.tend);
  }

  bool rk4_;
  std::size_t steps_ = 0;  // grid steps of a lane without armed events
};

/// Dormand & Prince RK5(4)7M coefficients. Row s of `a` builds the input
/// of stage k[s] at t + c[s] h; b (with b2 = 0) is the 5th-order
/// solution, whose derivative is the FSAL stage k7; e = b5 - b4 weighs
/// the error estimate (e2 = 0).
struct Dopri5Tableau {
  static constexpr double c[6] = {0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9,
                                  1.0};
  static constexpr double a[6][5] = {
      {},
      {1.0 / 5},
      {3.0 / 40, 9.0 / 40},
      {44.0 / 45, -56.0 / 15, 32.0 / 9},
      {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
      {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176,
       -5103.0 / 18656},
  };
  static constexpr double b1 = 35.0 / 384, b3 = 500.0 / 1113,
                          b4 = 125.0 / 192, b5 = -2187.0 / 6784,
                          b6 = 11.0 / 84;
  static constexpr double e1 = 71.0 / 57600, e3 = -71.0 / 16695,
                          e4 = 71.0 / 1920, e5 = -17253.0 / 339200,
                          e6 = 22.0 / 525, e7 = -1.0 / 40;
};

struct Dopri5Lane : LaneCore {
  double err_prev = 1.0;  // PI controller memory
  bool fresh = true;      // awaiting its first f and initial step
  std::size_t recorded = 0, attempts = 0;
  std::array<Vec, 7> k;  // stages k1..k7
  Vec ytmp, yerr, w;
};

/// kDopri5: per-lane PI step control over batched stage evaluations.
class Dopri5Stepper : public StepperBase<Dopri5Lane> {
  using T = Dopri5Tableau;

 public:
  Dopri5Stepper(const Problem& pp, const SolverOptions& oo, std::size_t lane,
                TrajectorySink& sink, bool batched)
      : StepperBase(pp, oo, "dopri5", lane, sink, batched),
        hmax_(oo.hmax > 0.0 ? oo.hmax : (pp.tend - pp.t0)) {}

  template <typename OnRetire>
  void add(std::uint32_t scenario, std::span<const double> y0,
           OnRetire& on_retire) {
    Dopri5Lane L = make_lane(scenario, y0);
    for (Vec& v : L.k) {
      v.resize(p.n);
    }
    for (Vec* v : {&L.ytmp, &L.yerr, &L.w}) {
      v->resize(p.n);
    }
    L.done = !(L.t < p.tend);
    join(std::move(L), on_retire);
  }

  template <typename OnRetire>
  void round(OnRetire& on_retire) {
    init_fresh();
    for (Dopri5Lane& L : lanes_) {
      L.h = std::min(L.h, p.tend - L.t);
    }
    // Stages 2..6: ytmp = y + sum_r (h a[s][r]) k[r], accumulated term by
    // term in r order.
    for (std::size_t s = 1; s < 6; ++s) {
      for (std::size_t j = 0; j < lanes_.size(); ++j) {
        Dopri5Lane& L = lanes_[j];
        const double h = L.h;
        const double ha0 = h * T::a[s][0];
        for (std::size_t i = 0; i < p.n; ++i) {
          L.ytmp[i] = L.y[i] + ha0 * L.k[0][i];
        }
        for (std::size_t r = 1; r < s; ++r) {
          const double ha = h * T::a[s][r];
          const double* kr = L.k[r].data();
          for (std::size_t i = 0; i < p.n; ++i) {
            L.ytmp[i] += ha * kr[i];
          }
        }
        ts_[j] = L.t + T::c[s] * h;
      }
      eval(0, [](Dopri5Lane& L) -> Vec& { return L.ytmp; },
           [s](Dopri5Lane& L) -> Vec& { return L.k[s]; });
    }
    // 5th-order solution (FSAL: k7 = f at the new point).
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      Dopri5Lane& L = lanes_[j];
      const auto& k = L.k;
      const double h = L.h;
      for (std::size_t i = 0; i < p.n; ++i) {
        L.ytmp[i] = L.y[i] + h * (T::b1 * k[0][i] + T::b3 * k[2][i] +
                                  T::b4 * k[3][i] + T::b5 * k[4][i] +
                                  T::b6 * k[5][i]);
      }
      ts_[j] = L.t + h;
    }
    eval(0, [](Dopri5Lane& L) -> Vec& { return L.ytmp; },
         [](Dopri5Lane& L) -> Vec& { return L.k[6]; });

    for (Dopri5Lane& L : lanes_) {
      control(L);
    }
    compact(on_retire);
  }

 private:
  /// First evaluation and automatic initial step (Hairer's d0/d1
  /// heuristic: h ~ 1% of ||y||_w / ||y'||_w) for the lanes that joined
  /// since the last round. Lanes only join at the back, so those are a
  /// suffix of lanes_.
  void init_fresh() {
    std::size_t j0 = lanes_.size();
    while (j0 > 0 && lanes_[j0 - 1].fresh) {
      --j0;
    }
    if (j0 == lanes_.size()) {
      return;
    }
    for (std::size_t j = j0; j < lanes_.size(); ++j) {
      ts_[j] = lanes_[j].t;
    }
    eval(j0, [](Dopri5Lane& L) -> Vec& { return L.y; },
         [](Dopri5Lane& L) -> Vec& { return L.k[0]; });
    for (std::size_t j = j0; j < lanes_.size(); ++j) {
      Dopri5Lane& L = lanes_[j];
      ++L.stats.rhs_calls;
      double h = o.h0;
      if (h <= 0.0) {
        error_weights(L.y, o.tol, L.w);
        const double d0 = la::wrms_norm(L.y, L.w);
        const double d1 = la::wrms_norm(L.k[0], L.w);
        h = (d0 > 1e-5 && d1 > 1e-5) ? 0.01 * d0 / d1
                                     : 1e-3 * (p.tend - p.t0);
        h = std::min(h, hmax_);
      }
      L.h = h;
      L.fresh = false;
    }
  }

  void control(Dopri5Lane& L) {
    const auto& k = L.k;
    const double h = L.h;
    for (std::size_t i = 0; i < p.n; ++i) {
      L.yerr[i] = h * (T::e1 * k[0][i] + T::e3 * k[2][i] + T::e4 * k[3][i] +
                       T::e5 * k[4][i] + T::e6 * k[5][i] + T::e7 * k[6][i]);
    }
    error_weights(L.ytmp, o.tol, L.w);
    const double err = la::wrms_norm(L.yerr, L.w);
    L.stats.rhs_calls += 6;
    if (!std::isfinite(err)) {
      // A NaN/Inf from the RHS fails every accept test, so without this
      // check the controller would shrink h to underflow and report a
      // misleading "step size underflow"; fail with the real cause.
      throw_nonfinite("dopri5", L.t);
    }
    if (err <= 1.0) {
      obs::record_step(obs::StepEventKind::kStepAccepted, "dopri5", 5, L.t,
                       L.h, err, L.scenario);
      // L.y and k hold the step's inputs and stages, L.ytmp the
      // candidate new state: exactly what the dense output needs.
      EventHandler::Hit hit;
      if (L.events.armed()) {
        hit = L.events.check(L.t, L.t + L.h, L.ytmp, "dopri5", L.stats, [&] {
          return DenseOutput::dopri5(L.t, L.h, L.y, L.ytmp, k[0], k[2], k[3],
                                     k[4], k[5], k[6]);
        });
      }
      if (hit.fired) {
        // The accepted step is truncated at the localized event time:
        // commit the interpolated pre-event state, apply the reset, and
        // restart with a fresh FSAL derivative and a conservative step.
        L.t = hit.t;
        ++L.stats.steps;
        ++L.recorded;
        L.rec.append(L.t, L.events.pre_state());
        std::copy(L.events.post_state().begin(),
                  L.events.post_state().end(), L.y.begin());
        L.rec.append(L.t, L.y);
        if (hit.terminal) {
          L.event_stopped = true;
          L.done = true;
        } else {
          eval_one(L.t, L.y, L.k[0]);
          ++L.stats.rhs_calls;
          L.h = event_restart_step(L.y, L.k[0], o.tol, p.tend - p.t0, hmax_,
                                   L.w);
          L.err_prev = 1.0;
        }
      } else {
        L.t += L.h;
        L.y.swap(L.ytmp);
        L.k[0].swap(L.k[6]);  // FSAL
        ++L.stats.steps;
        ++L.recorded;
        if (L.recorded % o.record_every == 0 || L.t >= p.tend) {
          L.rec.append(L.t, L.y);
        }
        // PI controller (Gustafsson).
        const double err_clamped = std::max(err, 1e-10);
        double fac = 0.9 * std::pow(err_clamped, -0.7 / 5.0) *
                     std::pow(L.err_prev, 0.4 / 5.0);
        fac = std::clamp(fac, 0.2, 5.0);
        L.h = std::min(L.h * fac, hmax_);
        L.err_prev = err_clamped;
      }
    } else {
      ++L.stats.rejected;
      obs::record_step(obs::StepEventKind::kStepRejected, "dopri5", 5, L.t,
                       L.h, err, L.scenario);
      const double fac = std::max(0.2, 0.9 * std::pow(err, -1.0 / 5.0));
      L.h *= fac;
      if (L.h < 1e-14 * std::max(1.0, std::fabs(L.t))) {
        throw omx::Error("dopri5: step size underflow at t = " +
                         std::to_string(L.t));
      }
    }
    ++L.attempts;
    if (L.t >= p.tend || L.done) {
      L.done = true;
    } else if (L.attempts >= o.max_steps) {
      throw omx::Error("dopri5: max_steps exceeded before reaching tend");
    }
  }

  double hmax_;
};

// kLsodaLike switch heuristics (§3.2.1; Petzold 1983). They are simpler
// than LSODA's method-order cost comparison but show the same
// behaviour on stiff/non-stiff transitions.
//
// Primary stiffness detector: every kStiffnessCheckInterval accepted
// Adams steps, measure sigma = h * lambda_est (see
// AdamsStepper::stiffness_ratio); kStiffSigmaConfirmations consecutive
// readings above kStiffSigma mean the explicit method is
// stability-limited, so switch to BDF.
constexpr std::size_t kStiffnessCheckInterval = 20;
constexpr double kStiffSigma = 0.8;
constexpr std::size_t kStiffSigmaConfirmations = 2;
// Fallbacks: switch when the Adams step collapses below kStiffHFraction
// of the span, or after kStiffRejectLimit consecutive rejections.
constexpr double kStiffHFraction = 1e-5;
constexpr std::size_t kStiffRejectLimit = 8;
// Switch back when BDF runs at h above kNonstiffHFraction of the span
// with Newton converging in at most 2 iterations kNonstiffStreak times
// in a row.
constexpr double kNonstiffHFraction = 1e-3;
constexpr std::size_t kNonstiffStreak = 20;

/// One stretch of a multistep lane on one method. Its problem starts at
/// the segment's (t, y), which sets the stepper's default hmax and its
/// fallback initial step. Exactly one stepper is engaged; both hold a
/// reference to `p`, so a segment never moves.
struct Segment {
  Problem p;
  std::optional<AdamsStepper> adams;
  std::optional<BdfStepper> bdf;
};

struct MultistepLane : LaneCore {
  std::unique_ptr<Segment> seg;  // null once the lane is done
  std::size_t accepted = 0, attempts = 0;
  // kLsodaLike switch state of the current segment.
  std::size_t seg_accepted = 0, since_check = 0, sigma_hits = 0,
              easy_streak = 0;
  Vec yprev;  // armed lanes: the jump's start, for the Hermite interpolant
};

/// Calls `f` on the segment's engaged stepper.
template <typename F>
decltype(auto) visit(Segment& s, F&& f) {
  return s.adams ? f(*s.adams) : f(*s.bdf);
}

void add_stats(SolverStats& into, const SolverStats& from) {
  into.rhs_calls += from.rhs_calls;
  into.jac_calls += from.jac_calls;
  into.steps += from.steps;
  into.rejected += from.rejected;
  into.newton_iters += from.newton_iters;
  into.method_switches += from.method_switches;
  into.jac_factorizations += from.jac_factorizations;
  into.jac_reuse_hits += from.jac_reuse_hits;
  into.events += from.events;
  into.events_terminal += from.events_terminal;
}

/// kAdamsPece, kBdf and kLsodaLike. Each lane runs an AdamsStepper or a
/// BdfStepper, which evaluate the lane problem's RHS themselves: lanes
/// share no RHS call, so a batch holds one lane. kAdamsPece and kBdf run
/// one segment; kLsodaLike starts on Adams and starts a new segment at
/// every switch.
class MultistepStepper : public StepperBase<MultistepLane> {
 public:
  static constexpr std::size_t kMaxLanes = 1;

  MultistepStepper(const Problem& pp, const SolverOptions& oo, Method method,
                   std::size_t lane, TrajectorySink& sink, bool batched)
      : StepperBase(pp, oo, method == Method::kAdamsPece ? "adams"
                                                         : to_string(method),
                    lane, sink, batched),
        method_(method),
        lane_p_(pp) {
    if (batched) {
      // Every evaluation of the lane, the colored-FD Jacobian's batched
      // call included, runs on this worker's kernel lane; one lane also
      // keeps the Jacobian's color groups on this thread.
      const Problem* base = &pp;
      lane_p_.set_rhs([base, lane](double t, std::span<const double> y,
                                   std::span<double> ydot) {
        base->batch_rhs(lane, 1, &t, y.data(), ydot.data());
      });
      lane_p_.set_batch_rhs([base, lane](std::size_t, std::size_t nb,
                                         const double* t, const double* y,
                                         double* ydot) {
        base->batch_rhs(lane, nb, t, y, ydot);
      });
      lane_p_.batch_lanes = 1;
    }
    // One Jacobian plan serves every BDF segment.
    if (method != Method::kAdamsPece && !lane_p_.jac_plan) {
      lane_p_.jac_plan = make_jac_plan(lane_p_);
    }
  }

  template <typename OnRetire>
  void add(std::uint32_t scenario, std::span<const double> y0,
           OnRetire& on_retire) {
    MultistepLane L = make_lane(scenario, y0);
    // kLsodaLike starts no segment on an empty span; the one-segment
    // methods still run their start-up.
    if (method_ != Method::kLsodaLike || L.t < p.tend) {
      begin(L, /*bdf=*/method_ == Method::kBdf);
    } else {
      L.done = true;
    }
    join(std::move(L), on_retire);
  }

  template <typename OnRetire>
  void round(OnRetire& on_retire) {
    for (MultistepLane& L : lanes_) {
      if (++L.attempts > o.max_steps) {
        throw omx::Error(std::string(method_name) + ": max_steps exceeded");
      }
      if (L.seg->adams) {
        adams_attempt(L);
      } else {
        bdf_attempt(L);
      }
    }
    compact(on_retire);
  }

 private:
  /// Starts a segment at the lane's (t, y). The stepper's start-up (the
  /// Adams history rebuild, the fixed-step BDF bootstrap) may already
  /// advance; that jump is swept for events like any other.
  void begin(MultistepLane& L, bool bdf) {
    SolverOptions so = o;
    if (method_ == Method::kLsodaLike) {
      so.bdf_fixed_h = 0.0;
      if (L.stats.method_switches > 0) {
        so.h0 = 0.0;  // h0 seeds the lane's first step only
      }
    }
    L.seg = std::make_unique<Segment>();
    Segment& s = *L.seg;
    s.p = lane_p_;
    s.p.t0 = L.t;
    s.p.y0 = L.y;
    if (bdf) {
      s.bdf.emplace(s.p, so);
    } else {
      s.adams.emplace(s.p, so);
    }
    L.seg_accepted = L.since_check = L.sigma_hits = L.easy_streak = 0;
    bool stopped = false;
    if (L.events.armed()) {
      L.yprev = L.y;
      stopped = sweep(L, L.t);
    }
    if (method_ == Method::kAdamsPece) {
      // kAdamsPece alone records where its start-up rebuild landed.
      L.rec.append(s.adams->t(), s.adams->y());
    }
    if (stopped) {
      end_segment(L);
    } else {
      advance(L);
    }
  }

  void adams_attempt(MultistepLane& L) {
    AdamsStepper& st = *L.seg->adams;
    const double t_prev = st.t();
    if (L.events.armed()) {
      L.yprev.assign(st.y().begin(), st.y().end());
    }
    const bool ok = st.step();
    // Rejected attempts also move time (the shrink-rebuild advances a
    // few substeps), so the sweep runs on every attempt.
    if (L.events.armed() && sweep(L, t_prev)) {
      end_segment(L);
      return;
    }
    const bool lsoda = method_ == Method::kLsodaLike;
    bool stiff = false;
    if (ok) {
      ++L.seg_accepted;
      if (count_accepted(L, st.t())) {
        L.rec.append(st.t(), st.y());
      }
      if (lsoda && ++L.since_check >= kStiffnessCheckInterval &&
          st.t() < p.tend) {
        L.since_check = 0;
        L.sigma_hits =
            st.stiffness_ratio() > kStiffSigma ? L.sigma_hits + 1 : 0;
        stiff = L.sigma_hits >= kStiffSigmaConfirmations;
      }
    }
    // The automatic initial step is deliberately conservative; give the
    // controller time to grow h before reading a small h as stiffness.
    const bool warmed_up = L.seg_accepted >= 48;
    if (lsoda && (stiff ||
                  (warmed_up && st.h() < kStiffHFraction * (p.tend - p.t0)) ||
                  st.consecutive_rejects() >= kStiffRejectLimit)) {
      switch_to(L, /*bdf=*/true);
      return;
    }
    advance(L);
  }

  void bdf_attempt(MultistepLane& L) {
    BdfStepper& st = *L.seg->bdf;
    const double t_prev = st.t();
    bool relaxed = false;
    if (st.step()) {
      const std::size_t fired_before = L.events.events_fired();
      if (L.events.armed() && sweep(L, t_prev)) {
        end_segment(L);
        return;
      }
      // An event rolled the stepper back to the crossing and recorded
      // its pre/post rows; the step's original endpoint is void, so the
      // cadence row would just duplicate the event time.
      if (count_accepted(L, st.t()) &&
          L.events.events_fired() == fired_before) {
        L.rec.append(st.t(), st.y());
      }
      if (st.last_newton_iters() <= 2 &&
          st.h() >= kNonstiffHFraction * (p.tend - p.t0)) {
        relaxed = ++L.easy_streak >= kNonstiffStreak;
      } else {
        L.easy_streak = 0;
      }
    } else {
      L.easy_streak = 0;
    }
    if (method_ == Method::kLsodaLike && relaxed && st.t() < p.tend) {
      switch_to(L, /*bdf=*/false);
      return;
    }
    advance(L);
  }

  /// Counts an accepted step ending at `t`; true when it is due a row
  /// (every record_every-th step, and the step that reaches tend).
  bool count_accepted(MultistepLane& L, double t) {
    return ++L.accepted % o.record_every == 0 || t >= p.tend;
  }

  /// After an attempt that did not stop the lane: the lane follows its
  /// stepper, and is done at tend.
  void advance(MultistepLane& L) {
    L.t = visit(*L.seg, [](auto& st) { return st.t(); });
    if (!(L.t < p.tend)) {
      L.done = true;
      end_segment(L);
    }
  }

  void end_segment(MultistepLane& L) {
    add_stats(L.stats, visit(*L.seg, [](auto& st) -> const SolverStats& {
                return st.stats();
              }));
    L.seg.reset();
  }

  /// kLsodaLike: ends the segment and starts the other method where it
  /// stopped (a lane that reached tend just finishes).
  void switch_to(MultistepLane& L, bool bdf) {
    const double h = visit(*L.seg, [&](auto& st) {
      L.t = st.t();
      L.y.assign(st.y().begin(), st.y().end());
      return st.h();
    });
    end_segment(L);
    ++L.stats.method_switches;
    obs::record_step(obs::StepEventKind::kMethodSwitch, bdf ? "bdf" : "adams",
                     0, L.t, h, 0.0);
    if (L.t < p.tend) {
      begin(L, bdf);
    } else {
      L.done = true;
    }
  }

  /// Sweeps the jump the lane's stepper just made from (t_prev, L.yprev)
  /// for events. On a hit it records the pre/post rows and restarts the
  /// stepper at the post-reset state (history truncation and Jacobian
  /// invalidation live in restart()), then sweeps the restart's own
  /// jump: an Adams history rebuild advances time, so one event can
  /// expose another. Returns true when a terminal event stopped the lane
  /// at L.t; the stepper is then not restarted.
  bool sweep(MultistepLane& L, double t_prev) {
    Segment& s = *L.seg;
    return visit(s, [&](auto& st) {
      while (st.t() > t_prev) {
        const EventHandler::Hit hit =
            L.events.check(t_prev, st.t(), st.y(), method_name, st.stats(),
                           [&] { return dense(s.p, st, t_prev, L.yprev); });
        if (!hit.fired) {
          return false;
        }
        L.rec.append(hit.t, L.events.pre_state());
        L.rec.append(hit.t, L.events.post_state());
        if (hit.terminal) {
          L.t = hit.t;
          L.event_stopped = true;
          L.done = true;
          return true;
        }
        t_prev = hit.t;
        L.yprev.assign(L.events.post_state().begin(),
                       L.events.post_state().end());
        st.restart(t_prev, L.yprev, 0.0);
      }
      return false;
    });
  }

  /// The Adams step has no continuous extension (the f history is
  /// rebuilt wholesale on restarts), so localization interpolates the
  /// jump with cubic Hermite from endpoint derivatives.
  static DenseOutput dense(const Problem& sp, AdamsStepper& st, double t0,
                           std::span<const double> y0) {
    Vec f0(sp.n), f1(sp.n);
    sp.rhs(t0, y0, f0);
    sp.rhs(st.t(), st.y(), f1);
    st.stats().rhs_calls += 2;
    return DenseOutput::hermite(t0, y0, f0, st.t(), st.y(), f1);
  }

  /// BDF localizes on its own history polynomial.
  static DenseOutput dense(const Problem&, BdfStepper& st, double,
                           std::span<const double>) {
    return st.last_step_dense();
  }

  Method method_;
  Problem lane_p_;  // the base problem, with the RHS on this worker's lane
};

// ----------------------------------------------------------- scheduling

struct WorkSource {
  std::vector<runtime::TaskDeque> deques;
  std::size_t nw = 0;

  explicit WorkSource(std::size_t num_workers, std::size_t num_scenarios)
      : deques(num_workers), nw(num_workers) {
    // Equal scenario weights: LPT degenerates to a deterministic
    // round-robin card deal, which is exactly the right seed — stealing
    // absorbs the *runtime* imbalance of scenarios that converge at
    // different speeds.
    const std::vector<double> weights(num_scenarios, 1.0);
    const sched::Schedule sched = sched::lpt_schedule(weights, num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      deques[w].reserve(sched[w].size());
      deques[w].seed(sched[w]);
    }
  }

  /// Pops from the worker's own deque, then steals from the most-loaded
  /// victim. Returns false only when every deque is empty.
  bool next(std::size_t w, std::uint32_t& s) {
    if (deques[w].pop(s)) {
      return true;
    }
    for (;;) {
      std::size_t victim = nw;
      std::size_t best = 0;
      for (std::size_t v = 0; v < nw; ++v) {
        if (v == w) {
          continue;
        }
        const std::size_t sz = deques[v].size_estimate();
        if (sz > best) {
          best = sz;
          victim = v;
        }
      }
      if (victim == nw) {
        return false;
      }
      if (deques[victim].steal(s)) {
        return true;
      }
      // Lost the race; sizes changed, pick again.
    }
  }
};


/// Ensemble-only lane accounting: the active-scenario gauge, the
/// retire/event-stop counters, the lane recorder events and the RHS total
/// behind ensemble.rhs_calls_per_sec. Kept out of the steppers, so a
/// single solve never touches it.
struct LaneLedger {
  std::atomic<std::int64_t> active{0};
  std::atomic<std::uint64_t> rhs_total{0};

  void joined() { move_active(1); }
  void left() { move_active(-1); }

  /// `at_event` marks a lane stopped early by a terminal event; an
  /// ordinary retirement reached tend. `t` is the recorded stop time.
  void retired(const char* method, std::uint32_t scenario,
               const SolverStats& stats, bool at_event, double t) {
    obs::record_lane(at_event ? obs::StepEventKind::kLaneEventStop
                              : obs::StepEventKind::kLaneRetire,
                     method, scenario, t);
    lanes_retired_counter().add();
    if (at_event) {
      lanes_event_stopped_counter().add();
    }
    rhs_total.fetch_add(stats.rhs_calls, std::memory_order_relaxed);
  }

 private:
  void move_active(std::int64_t d) {
    active.fetch_add(d, std::memory_order_relaxed);
    active_gauge().set(
        static_cast<double>(active.load(std::memory_order_relaxed)));
  }
};

/// Runs `f` on the stepper of `method`.
template <typename F>
void with_stepper(const Problem& p, Method method, const SolverOptions& o,
                  std::size_t lane, TrajectorySink& sink, bool batched,
                  F&& f) {
  switch (method) {
    case Method::kExplicitEuler:
    case Method::kRk4: {
      FixedStepper st(p, o, method, lane, sink, batched);
      f(st);
      return;
    }
    case Method::kDopri5: {
      Dopri5Stepper st(p, o, lane, sink, batched);
      f(st);
      return;
    }
    case Method::kAdamsPece:
    case Method::kBdf:
    case Method::kLsodaLike: {
      MultistepStepper st(p, o, method, lane, sink, batched);
      f(st);
      return;
    }
  }
  throw omx::Bug("unknown ode::Method");
}

/// One ensemble worker: fills its stepper's batch from the work source,
/// up to `max_batch` lanes, and runs rounds until no scenario is left.
/// Lane events and the cancel message carry the Method's name.
template <typename Stepper>
void run_batched_worker(Stepper& st, Method method, WorkSource& ws,
                        std::size_t w, std::size_t max_batch,
                        const EnsembleSpec& spec, LaneLedger& ledger) {
  const char* const name = to_string(method);
  max_batch = std::min(max_batch, Stepper::kMaxLanes);
  // A one-lane stepper integrates one scenario at a time; each gets the
  // method span that ode::solve records.
  std::optional<obs::Span> scenario_span;
  auto on_retire = [&](const LaneCore& L) {
    ledger.retired(name, L.scenario, L.stats, L.event_stopped,
                   L.event_stopped ? L.t : st.p.tend);
    ledger.left();
    scenario_span.reset();
  };
  std::uint32_t s = 0;
  bool mid_flight = false;  // has this batch taken a round yet?
  for (;;) {
    if (st.o.cancel != nullptr &&
        st.o.cancel->load(std::memory_order_relaxed)) {
      lanes_cancelled_counter().add(
          st.abandon_all([&](std::uint32_t scenario, double t) {
            obs::record_lane(obs::StepEventKind::kLaneCancel, name, scenario,
                             t);
            ledger.left();
          }));
      throw Cancelled(std::string(name) + ": ensemble cancelled");
    }
    while (st.active() < max_batch && ws.next(w, s)) {
      obs::record_lane(mid_flight ? obs::StepEventKind::kLaneRefill
                                  : obs::StepEventKind::kLanePack,
                       name, s, st.p.t0);
      ledger.joined();
      if constexpr (Stepper::kMaxLanes == 1) {
        scenario_span.emplace(name, "ode");
      }
      st.add(s, spec.initial_states[s], on_retire);
    }
    const std::size_t nb = st.active();
    if (nb == 0) {
      break;
    }
    occupancy_hist().observe(static_cast<double>(nb));
    Stopwatch timer;
    st.round(on_retire);
    // Per-lane share of the round: comparable across batch widths.
    lane_step_hist().observe(timer.seconds() / static_cast<double>(nb));
    mid_flight = true;
  }
}

}  // namespace

namespace detail {

SolverStats solve_one_lane(const Problem& p, Method method,
                           const SolverOptions& opts, TrajectorySink& sink,
                           std::uint32_t scenario) {
  p.validate();
  obs::Span span(to_string(method), "ode");
  SolverStats stats;
  auto on_retire = [&](const LaneCore& L) { stats = L.stats; };
  with_stepper(p, method, opts, 0, sink, /*batched=*/false, [&](auto& st) {
    st.add(scenario, p.y0, on_retire);
    while (st.active() > 0) {
      poll_cancel(opts.cancel, st.method_name);
      st.round(on_retire);
    }
  });
  return stats;
}

}  // namespace detail

void solve_ensemble(const Problem& p, Method method,
                    const SolverOptions& opts, const EnsembleSpec& spec,
                    TrajectorySink& sink) {
  const std::size_t ns = spec.initial_states.size();
  if (ns == 0) {
    return;
  }

  {
    // Validate the base problem against the first scenario's y0 (the base
    // y0 is ignored and may be empty), then every scenario's arity.
    Problem v = p;
    v.y0 = spec.initial_states[0];
    v.validate();
  }
  if (opts.record_every == 0) {
    throw omx::Error("solve_ensemble: record_every must be at least 1");
  }
  for (const std::vector<double>& y0 : spec.initial_states) {
    if (y0.size() != p.n) {
      throw omx::Error(
          "solve_ensemble: scenario initial state size does not match n");
    }
  }

  obs::Span span("solve_ensemble", "ode");

  // Derive the stiff methods' sparsity pattern, coloring and backend
  // choice ONCE here and share the immutable plan across every lane's
  // solver instead of re-deriving it per scenario.
  Problem base = p;
  if ((method == Method::kBdf || method == Method::kLsodaLike) &&
      !base.jac_plan) {
    base.jac_plan = make_jac_plan(base);
    if (base.jac_plan) {
      jac_plans_built_counter().add();
      jac_plan_reuse_counter().add(ns - 1);
    }
  }

  std::size_t nw = std::clamp<std::size_t>(spec.workers, 1, ns);
  if (p.batch_lanes > 0) {
    nw = std::min(nw, p.batch_lanes);
  }
  // Round the batch width down to whole SIMD blocks: a max_batch that is
  // not a lane_width multiple would make *every* full batch end in a
  // partially filled vector block, wasting lanes on each RHS call. Tail
  // batches (fewer scenarios left than max_batch) still shrink freely —
  // lane independence keeps results identical either way.
  std::size_t max_batch = std::max<std::size_t>(1, spec.max_batch);
  const std::size_t lw = simd::lane_width();
  if (max_batch > lw) {
    max_batch -= max_batch % lw;
  }

  WorkSource ws(nw, ns);
  LaneLedger ledger;
  std::mutex err_mutex;
  std::exception_ptr first_error;

  const bool batched = static_cast<bool>(p.batch_rhs);
  auto worker = [&](std::size_t w) {
    try {
      with_stepper(base, method, opts, w, sink, batched, [&](auto& st) {
        run_batched_worker(st, method, ws, w, max_batch, spec, ledger);
      });
    } catch (...) {
      const std::lock_guard<std::mutex> lock(err_mutex);
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  if (nw == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    try {
      threads.reserve(nw);
      for (std::size_t w = 0; w < nw; ++w) {
        threads.emplace_back(worker, w);
      }
    } catch (...) {
      // The workers already running steal the unstarted workers'
      // scenarios; join them (destroying a joinable std::thread
      // terminates) and then report the spawn failure.
      const std::lock_guard<std::mutex> lock(err_mutex);
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  active_gauge().set(0.0);
  if (first_error) {
    std::rethrow_exception(first_error);
  }

  const double total_rhs =
      static_cast<double>(ledger.rhs_total.load(std::memory_order_relaxed));
  if (secs > 0.0) {
    rate_gauge().set(total_rhs / secs);
  }
}

EnsembleResult solve_ensemble(const Problem& p, Method method,
                              const SolverOptions& opts,
                              const EnsembleSpec& spec) {
  EnsembleCollectSink sink(spec.initial_states.size());
  solve_ensemble(p, method, opts, spec, sink);
  EnsembleResult res;
  res.solutions = sink.take();
  return res;
}

}  // namespace omx::ode
