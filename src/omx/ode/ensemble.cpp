#include "omx/ode/ensemble.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/adams.hpp"
#include "omx/ode/bdf.hpp"
#include "omx/ode/events.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/lane_block.hpp"
#include "omx/ode/lane_ops.hpp"
#include "omx/ode/lane_rhs.hpp"
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

[[noreturn]] void throw_nonfinite(const char* method, double t) {
  throw omx::Error(std::string(method) +
                   ": non-finite state or RHS at t = " + std::to_string(t));
}

// ----------------------------------------------------------- steppers
//
// The one implementation of every Method. A stepper integrates a set of
// lanes (scenarios) in lockstep: one round() is one step attempt for
// every lane. Every evaluation goes through one LaneRhs bound to the
// worker's kernel lane. The explicit steppers keep their lanes in a
// LaneBlock and fuse each stage's RHS evaluations into one call on it.
// Every lane keeps its own t, h, step control and events, and batched
// kernels are lane-independent, so a lane's trajectory is the same
// whichever lanes share its block. ode::solve is the same stepper with
// one lane on kernel lane 0 (detail::solve_one_lane).

using Vec = std::vector<double>;

/// Per-scenario state every stepper lane carries.
struct LaneCore {
  std::uint32_t scenario = 0;
  double t = 0.0, h = 0.0;
  bool done = false;           // reached tend, or stopped by an event
  bool event_stopped = false;  // stopped at t by a terminal event
  EventHandler events;         // per-lane guard-sign cache
  TrajectoryWriter rec;
  SolverStats stats;
};

/// Lane slots shared by the steppers. A lane that finishes in a round is
/// retired at the round's end and leaves its slot vacant; a lane added
/// before the next round takes the first vacant slot in place, and the
/// next round closes the slots still vacant (settle_slots).
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

  std::size_t active() const { return live_; }

  /// Drops every lane (cancellation): each writer abandons its partial
  /// chunk and finish() is never sent. `on_drop(scenario, t)` sees each
  /// lane; returns how many there were.
  template <typename OnDrop>
  std::size_t abandon_all(OnDrop on_drop) {
    for (const Lane& L : lanes_) {
      if (!L.done) {
        on_drop(L.scenario, L.t);
      }
    }
    const std::size_t n = live_;
    lanes_.clear();
    live_ = 0;
    return n;
  }

 protected:
  StepperBase(const Problem& pp, const SolverOptions& oo, const char* method,
              TrajectorySink& sink)
      : p(pp), o(oo), method_name(method), sink_(&sink) {}

  /// A lane at (t0, y0) with its initial row recorded and its events
  /// primed.
  Lane make_lane(std::uint32_t scenario, std::span<const double> y0) {
    Lane L;
    L.scenario = scenario;
    L.t = p.t0;
    L.events = EventHandler(p.events, p.n);
    if (L.events.armed()) {
      L.events.prime(L.t, y0);
    }
    L.rec = TrajectoryWriter(*sink_, scenario, p.n);
    L.rec.append(L.t, y0);
    return L;
  }

  /// Retires `L` at once when it has nothing to integrate (a zero-length
  /// span, or a start-up that already finished it); otherwise seats it in
  /// the first vacant slot, or in a new slot at the end, and returns the
  /// slot.
  template <typename OnRetire>
  std::optional<std::size_t> join(Lane&& L, OnRetire& on_retire) {
    if (L.done) {
      retire(L, on_retire);
      return std::nullopt;
    }
    ++live_;
    const std::size_t j = vacant_slot();
    if (j == lanes_.size()) {
      lanes_.push_back(std::move(L));
    } else {
      lanes_[j] = std::move(L);
    }
    return j;
  }

  /// The slot join() seats the next lane in: the first vacant one, else a
  /// new one at the end.
  std::size_t vacant_slot() const {
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if (lanes_[j].done) {
        return j;
      }
    }
    return lanes_.size();
  }

  /// Closes the vacant slots, keeping order. Returns the old slots of the
  /// lanes kept, or an empty span when no slot was vacant.
  std::span<const std::size_t> settle_slots() {
    if (live_ == lanes_.size()) {
      return {};
    }
    keep_.clear();
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if (!lanes_[j].done) {
        if (keep_.size() != j) {
          lanes_[keep_.size()] = std::move(lanes_[j]);
        }
        keep_.push_back(j);
      }
    }
    lanes_.resize(keep_.size());
    return keep_;
  }

  /// Retires the lanes that finished this round; their slots fall vacant.
  template <typename OnRetire>
  void retire_done(OnRetire& on_retire) {
    for (Lane& L : lanes_) {
      if (L.done) {
        --live_;
        retire(L, on_retire);
      }
    }
  }

  template <typename OnRetire>
  void retire(Lane& L, OnRetire& on_retire) {
    publish_solver_stats(L.stats);
    on_retire(static_cast<const LaneCore&>(L));
    L.rec.finish(L.stats);
  }

  std::vector<Lane> lanes_;  // slot j holds the lane in block column j

 private:
  TrajectorySink* sink_;
  std::size_t live_ = 0;
  std::vector<std::size_t> keep_;
};

/// StepperBase over a LaneBlock: the explicit steppers. Array 0 of the
/// block is every lane's state y. Per-lane scalars the stage loops read
/// (stage times, step sizes, coefficients) sit in slot-indexed vectors
/// beside it. Nothing here allocates once the block has reached its
/// widest.
template <typename Lane>
class BlockStepper : public StepperBase<Lane> {
  using Base = StepperBase<Lane>;

 public:
  using Base::p;

 protected:
  using Base::lanes_;
  static constexpr std::size_t kY = 0;

  /// Every evaluation is one LaneRhs call on kernel lane `lane`.
  BlockStepper(const Problem& pp, const SolverOptions& oo, const char* method,
               std::size_t lane, TrajectorySink& sink, std::size_t arrays,
               std::size_t kept)
      : Base(pp, oo, method, sink), blk_(pp.n, arrays, kept), rhs_(pp, lane) {}

  std::size_t width() const { return blk_.width(); }

  /// Base::join, and a seated lane's y0 goes into its block column.
  template <typename OnRetire>
  void join(Lane&& L, std::span<const double> y0, OnRetire& on_retire) {
    const std::optional<std::size_t> slot =
        Base::join(std::move(L), on_retire);
    if (!slot) {
      return;
    }
    const std::size_t j = *slot;
    if (j >= blk_.width()) {
      blk_.widen(j);
      for (simd::aligned_vector<double>* v : {&ts_, &h_, &c_, &acc_}) {
        v->resize(blk_.width());
      }
    }
    scatter(y0, blk_[kY], blk_.width(), j);
  }

  /// Starts a round: the block re-strides once to the live width if
  /// lanes retired since the last round and no scenario refilled them,
  /// and drops the slots a widening left without a lane.
  void settle() {
    const std::span<const std::size_t> keep = this->settle_slots();
    if (!keep.empty()) {
      blk_.restride(keep);
    } else if (blk_.width() > lanes_.size()) {
      blk_.trim(lanes_.size());
    }
  }

  /// Lane j's column of array `a` as a contiguous span: a width-1 block's
  /// array itself, else gathered into `into` (of size n).
  std::span<const double> col(std::size_t a, std::size_t j, Vec& into) {
    if (width() == 1) {
      return {blk_[a], p.n};
    }
    gather(blk_[a], width(), j, into);
    return into;
  }

  /// Array `out` = f(ts_, array `in`) for every lane, as one call.
  void eval(std::size_t in, std::size_t out) {
    rhs_(width(), ts_.data(), blk_[in], blk_[out]);
  }

  LaneBlock blk_;
  // Slot-indexed: stage times, step sizes, one stage coefficient per
  // lane and a per-lane accumulator (64-byte aligned per the simd.hpp
  // contract).
  simd::aligned_vector<double> ts_, h_, c_, acc_;
  LaneRhs rhs_;  // also one lane's contiguous vectors: a width-1 block
};

struct FixedLane : LaneCore {
  std::size_t k = 0;  // grid steps since the start or the last event
  Vec yprev;  // armed lanes: the step's start, for the Hermite interpolant
};

/// kExplicitEuler / kRk4. A lane without armed events takes the
/// step-counted walk over the dt grid (every such lane takes the same
/// number of steps); a lane whose EventHandler is armed walks to tend
/// instead, because an event shifts it off the grid.
class FixedStepper : public BlockStepper<FixedLane> {
  // Block arrays: y (kept), the stages k1..k4 and the stage input.
  static constexpr std::size_t kK1 = 1, kTmp = 5;

 public:
  FixedStepper(const Problem& pp, const SolverOptions& oo, Method method,
               std::size_t lane, TrajectorySink& sink)
      : BlockStepper(pp, oo, to_string(method), lane, sink, 6, 1),
        rk4_(method == Method::kRk4),
        y1_(pp.n),
        f0_(pp.n),
        f1_(pp.n) {
    OMX_REQUIRE(oo.dt > 0.0, "dt must be positive");
    steps_ = static_cast<std::size_t>(
        std::ceil((pp.tend - pp.t0) / oo.dt - 1e-12));
  }

  template <typename OnRetire>
  void add(std::uint32_t scenario, std::span<const double> y0,
           OnRetire& on_retire) {
    FixedLane L = make_lane(scenario, y0);
    if (L.events.armed()) {
      L.yprev.resize(p.n);
      L.done = !(L.t < p.tend);
    } else {
      L.done = steps_ == 0;
    }
    join(std::move(L), y0, on_retire);
  }

  template <typename OnRetire>
  void round(OnRetire& on_retire) {
    settle();
    const std::size_t nb = width(), n = p.n;
    for (std::size_t j = 0; j < nb; ++j) {
      FixedLane& L = lanes_[j];
      L.h = std::min(o.dt, p.tend - L.t);
      h_[j] = L.h;
      ts_[j] = L.t;
      if (L.events.armed()) {
        gather(blk_[kY], nb, j, L.yprev);
      }
    }
    // k1 = f(t, y)
    eval(kY, kK1);
    double* y = blk_[kY];
    const double* h = h_.data();
    if (rk4_) {
      rk4_stages();
      double* c = c_.data();
      for (std::size_t j = 0; j < nb; ++j) {
        c[j] = h[j] / 6.0;
      }
      lane_ops::rk4_update(n, nb, y, c, blk_[kK1], blk_[kK1 + 1],
                           blk_[kK1 + 2], blk_[kK1 + 3]);
    } else {
      // y += h k1, as (h 1) k1 == h k1.
      const double one = 1.0, *k1 = blk_[kK1];
      lane_ops::stage_sum(n, nb, y, y, h, &one, &k1, 1);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      FixedLane& L = lanes_[j];
      L.stats.rhs_calls += rk4_ ? 4 : 1;
      const double t_prev = L.t;
      L.t += L.h;
      finish_step(j, t_prev);
    }
    retire_done(on_retire);
  }

 private:
  void rk4_stages() {
    const std::size_t nb = width(), n = p.n;
    const double* y = blk_[kY];
    const double* h = h_.data();
    double* tmp = blk_[kTmp];
    // k2 = f(t + h/2, y + h/2 k1), k3 = f(t + h/2, y + h/2 k2)
    for (std::size_t j = 0; j < nb; ++j) {
      ts_[j] = lanes_[j].t + 0.5 * h[j];
    }
    const double half = 0.5, one = 1.0;
    for (const std::size_t s : {kK1, kK1 + 1}) {
      const double* ks = blk_[s];
      lane_ops::stage_sum(n, nb, tmp, y, h, &half, &ks, 1);
      eval(kTmp, s + 1);
    }
    // k4 = f(t + h, y + h k3)
    const double* k3 = blk_[kK1 + 2];
    lane_ops::stage_sum(n, nb, tmp, y, h, &one, &k3, 1);
    for (std::size_t j = 0; j < nb; ++j) {
      ts_[j] = lanes_[j].t + h[j];
    }
    eval(kTmp, kK1 + 3);
  }

  void finish_step(std::size_t j, double t_prev) {
    FixedLane& L = lanes_[j];
    ++L.stats.steps;
    // No error control would notice a NaN/Inf from the RHS: without this
    // check the lane would integrate garbage to tend.
    const std::size_t nb = width();
    const double* y = blk_[kY];
    for (std::size_t i = 0; i < p.n; ++i) {
      if (!std::isfinite(y[i * nb + j])) {
        throw_nonfinite(method_name, L.t);
      }
    }
    const bool due = L.k % o.record_every == o.record_every - 1;
    if (!L.events.armed()) {
      if (due || L.k + 1 == steps_) {
        L.rec.append(L.t, col(kY, j, y1_));
      }
      L.done = ++L.k >= steps_;
      return;
    }
    const std::span<const double> y1 = col(kY, j, y1_);
    const EventHandler::Hit hit =
        L.events.check(t_prev, L.t, y1, method_name, L.stats, [&] {
          // Cubic Hermite over the step from its endpoint derivatives.
          rhs_(t_prev, L.yprev, f0_);
          rhs_(L.t, y1, f1_);
          L.stats.rhs_calls += 2;
          return DenseOutput::hermite(t_prev, L.yprev, f0_, L.t, y1, f1_);
        });
    if (hit.fired) {
      // Resume on a grid anchored at the event time.
      L.t = hit.t;
      L.rec.append(L.t, L.events.pre_state());
      scatter(L.events.post_state(), blk_[kY], nb, j);
      L.rec.append(L.t, L.events.post_state());
      L.event_stopped = hit.terminal;
      L.done = hit.terminal || !(L.t < p.tend);
      return;
    }
    if (due || L.t >= p.tend) {
      L.rec.append(L.t, y1);
    }
    ++L.k;
    L.done = !(L.t < p.tend);
  }

  bool rk4_;
  std::size_t steps_ = 0;  // grid steps of a lane without armed events
  Vec y1_, f0_, f1_;       // one lane's gathered state and derivatives
};

/// Dormand & Prince RK5(4)7M coefficients. Row s of `a` builds the input
/// of stage k[s] at t + c[s] h; b weighs k1, k3, k4, k5, k6 (b2 = 0) in
/// the 5th-order solution, whose derivative is the FSAL stage k7; e =
/// b5 - b4 weighs k1, k3, ..., k7 (e2 = 0) in the error estimate.
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
  static constexpr double b[5] = {35.0 / 384, 500.0 / 1113, 125.0 / 192,
                                  -2187.0 / 6784, 11.0 / 84};
  static constexpr double e[6] = {71.0 / 57600, -71.0 / 16695,
                                  71.0 / 1920,  -17253.0 / 339200,
                                  22.0 / 525,   -1.0 / 40};
};

struct Dopri5Lane : LaneCore {
  double err_prev = 1.0;  // PI controller memory
  bool fresh = true;      // awaiting its first f and initial step
  bool took = false;      // this round's candidate becomes the lane's state
  std::size_t recorded = 0, attempts = 0;
};

/// kDopri5: per-lane PI step control over batched stage evaluations.
class Dopri5Stepper : public BlockStepper<Dopri5Lane> {
  using T = Dopri5Tableau;
  // Block arrays: y and the FSAL derivative k1 (both kept), the stages
  // k2..k7 and the stage input / candidate state ytmp.
  static constexpr std::size_t kK = 1, kYtmp = 8;

 public:
  Dopri5Stepper(const Problem& pp, const SolverOptions& oo, std::size_t lane,
                TrajectorySink& sink)
      : BlockStepper(pp, oo, "dopri5", lane, sink, 9, 2),
        hmax_(oo.hmax > 0.0 ? oo.hmax : (pp.tend - pp.t0)),
        f0_(pp.n),
        w_(pp.n) {
    for (Vec& v : dense_) {
      v.resize(pp.n);
    }
  }

  template <typename OnRetire>
  void add(std::uint32_t scenario, std::span<const double> y0,
           OnRetire& on_retire) {
    Dopri5Lane L = make_lane(scenario, y0);
    L.done = !(L.t < p.tend);
    join(std::move(L), y0, on_retire);
  }

  template <typename OnRetire>
  void round(OnRetire& on_retire) {
    settle();
    init_fresh();
    const std::size_t nb = width(), n = p.n;
    for (std::size_t j = 0; j < nb; ++j) {
      Dopri5Lane& L = lanes_[j];
      L.h = std::min(L.h, p.tend - L.t);
      h_[j] = L.h;
    }
    const double* y = blk_[kY];
    double* ytmp = blk_[kYtmp];
    const double* h = h_.data();
    // Stages 2..6: ytmp = y + sum_r (h a[s][r]) k[r], summed term by term
    // in r order, one pass per stage.
    const double* k[5] = {blk_[kK], blk_[kK + 1], blk_[kK + 2],
                          blk_[kK + 3], blk_[kK + 4]};
    for (std::size_t s = 1; s < 6; ++s) {
      lane_ops::stage_sum(n, nb, ytmp, y, h, T::a[s], k, s);
      for (std::size_t j = 0; j < nb; ++j) {
        ts_[j] = lanes_[j].t + T::c[s] * h[j];
      }
      eval(kYtmp, kK + s);
    }
    // 5th-order solution (FSAL: k7 = f at the new point).
    {
      const double* kb[5] = {blk_[kK], blk_[kK + 2], blk_[kK + 3],
                             blk_[kK + 4], blk_[kK + 5]};
      lane_ops::combine5(n, nb, ytmp, y, h, T::b, kb);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      ts_[j] = lanes_[j].t + h[j];
    }
    eval(kYtmp, kK + 6);

    error_norms();
    for (std::size_t j = 0; j < nb; ++j) {
      control(j);
    }
    commit();
    retire_done(on_retire);
  }

 private:
  /// First evaluation and automatic initial step (initial_step) for the
  /// lanes that joined since the last round. A block of fresh lanes (a
  /// job's start) takes its first f as one call; a lane refilled beside
  /// running ones is evaluated alone.
  void init_fresh() {
    const std::size_t nb = width();
    std::size_t fresh = 0;
    for (std::size_t j = 0; j < nb; ++j) {
      ts_[j] = lanes_[j].t;
      fresh += lanes_[j].fresh ? 1 : 0;
    }
    if (fresh == 0) {
      return;
    }
    if (fresh == nb) {
      eval(kY, kK);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      Dopri5Lane& L = lanes_[j];
      if (!L.fresh) {
        continue;
      }
      const std::span<const double> y0 = col(kY, j, dense_[0]);
      if (fresh != nb) {
        rhs_(L.t, y0, f0_);
        scatter(f0_, blk_[kK], nb, j);
      }
      const std::span<const double> f0 = col(kK, j, f0_);
      ++L.stats.rhs_calls;
      double h = o.h0;
      if (h <= 0.0) {
        h = initial_step(y0, f0, o.tol, p.tend - p.t0, hmax_, w_);
      }
      L.h = h;
      L.fresh = false;
    }
  }

  /// acc_[j] = the weighted RMS norm of lane j's error estimate
  /// yerr = h sum_s e[s] k[s], weighted at the candidate ytmp: the
  /// elementwise arithmetic of error_weights and la::wrms_norm, summed
  /// over i in order per lane.
  void error_norms() {
    const std::size_t nb = width(), n = p.n;
    const double* k[6] = {blk_[kK],     blk_[kK + 2], blk_[kK + 3],
                          blk_[kK + 4], blk_[kK + 5], blk_[kK + 6]};
    double* acc = acc_.data();
    std::fill_n(acc, nb, 0.0);
    lane_ops::error_sumsq(n, nb, acc, blk_[kYtmp], h_.data(), T::e, k,
                          o.tol.atol, o.tol.rtol);
    for (std::size_t j = 0; j < nb; ++j) {
      acc[j] = std::sqrt(acc[j] / static_cast<double>(n));
    }
  }

  /// Accepts or rejects lane j's step. An accepted lane "takes" its
  /// block column of ytmp (and k7, the FSAL derivative) as its new y
  /// (and k1); commit() moves them.
  void control(std::size_t j) {
    Dopri5Lane& L = lanes_[j];
    const std::size_t nb = width();
    const double err = acc_[j];
    L.stats.rhs_calls += 6;
    L.took = false;
    if (!std::isfinite(err)) {
      // A NaN/Inf from the RHS fails every accept test, so without this
      // check the controller would shrink h to underflow and report a
      // misleading "step size underflow"; fail with the real cause.
      throw_nonfinite("dopri5", L.t);
    }
    if (err <= 1.0) {
      obs::record_step(obs::StepEventKind::kStepAccepted, "dopri5", 5, L.t,
                       L.h, err, L.scenario);
      L.took = true;
      std::span<const double> y1;  // the candidate, once gathered
      EventHandler::Hit hit;
      if (L.events.armed()) {
        y1 = col(kYtmp, j, dense_[1]);
        hit = L.events.check(L.t, L.t + L.h, y1, "dopri5", L.stats, [&] {
          // y and k hold the step's inputs and stages, ytmp the
          // candidate new state: exactly what the dense output needs.
          std::array<std::span<const double>, 8> v;
          for (std::size_t a = 0; a < 8; ++a) {
            v[a] = a == 1 ? y1 : col(kDenseArray[a], j, dense_[a]);
          }
          return DenseOutput::dopri5(L.t, L.h, v[0], v[1], v[2], v[3], v[4],
                                     v[5], v[6], v[7]);
        });
      }
      if (hit.fired) {
        // The accepted step is truncated at the localized event time:
        // commit the interpolated pre-event state, apply the reset, and
        // restart with a fresh FSAL derivative and a conservative step.
        const std::span<const double> post = L.events.post_state();
        L.t = hit.t;
        ++L.stats.steps;
        ++L.recorded;
        L.rec.append(L.t, L.events.pre_state());
        scatter(post, blk_[kYtmp], nb, j);
        L.rec.append(L.t, post);
        if (hit.terminal) {
          L.event_stopped = true;
          L.done = true;
        } else {
          rhs_(L.t, post, f0_);
          ++L.stats.rhs_calls;
          scatter(f0_, blk_[kK + 6], nb, j);
          L.h = initial_step(post, f0_, o.tol, p.tend - p.t0, hmax_, w_);
          L.err_prev = 1.0;
        }
      } else {
        L.t += L.h;
        ++L.stats.steps;
        ++L.recorded;
        if (L.recorded % o.record_every == 0 || L.t >= p.tend) {
          L.rec.append(L.t, y1.empty() ? col(kYtmp, j, dense_[1]) : y1);
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

  /// The lanes that took their step swap ytmp into y and k7 into k1
  /// (FSAL): the arrays swap whole, and a lane that rejected copies its
  /// old columns back.
  void commit() {
    const std::size_t nb = width(), n = p.n;
    std::size_t took = 0;
    for (std::size_t j = 0; j < nb; ++j) {
      took += lanes_[j].took ? 1 : 0;
    }
    if (took == 0) {
      return;
    }
    blk_.swap(kY, kYtmp);
    blk_.swap(kK, kK + 6);
    if (took == nb) {
      return;
    }
    double *y = blk_[kY], *k1 = blk_[kK];
    const double *old_y = blk_[kYtmp], *old_k1 = blk_[kK + 6];
    for (std::size_t j = 0; j < nb; ++j) {
      if (!lanes_[j].took) {
        for (std::size_t i = 0; i < n; ++i) {
          y[i * nb + j] = old_y[i * nb + j];
          k1[i * nb + j] = old_k1[i * nb + j];
        }
      }
    }
  }

  /// The block arrays DenseOutput::dopri5 reads, in argument order: y,
  /// ytmp, k1, k3, k4, k5, k6, k7.
  static constexpr std::array<std::size_t, 8> kDenseArray = {
      kY, kYtmp, kK, kK + 2, kK + 3, kK + 4, kK + 5, kK + 6};

  double hmax_;
  std::array<Vec, 8> dense_;  // one lane's gathered columns
  Vec f0_, w_;                // one lane's f and error weights
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
  Vec y;                         // the state where the segment starts
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
/// BdfStepper. kAdamsPece and kBdf run one segment; kLsodaLike starts on
/// Adams and starts a new segment at every switch.
///
/// Every evaluation, Jacobians' included, runs on the worker's kernel
/// lane. A round steps the Adams lanes one at a time, each evaluating its
/// own RHS. The BDF lanes (kLsodaLike lanes in a BDF segment among them)
/// keep their history and Newton state in one BdfLanes block, slot j
/// being the lane in slot j, and take their step attempts together
/// (BdfLanes::attempt): the elementwise phases run lane-inner over the
/// block, every Newton iteration is one RHS call over the lanes still
/// iterating and one la::LaneSolver solve over their factorizations.
/// Jacobian evaluation, refactoring and events stay per lane, and every
/// lane does its own operations in its own order, so its bits do not
/// depend on the lanes beside it. A lane seated in a slot reuses the Jacobian engine
/// the slot's last BDF lane left.
class MultistepStepper : public StepperBase<MultistepLane> {
 public:
  MultistepStepper(const Problem& pp, const SolverOptions& oo, Method method,
                   std::size_t lane, TrajectorySink& sink)
      : StepperBase(pp, oo, method == Method::kAdamsPece ? "adams"
                                                         : to_string(method),
                    sink),
        method_(method),
        lane_(lane),
        base_(pp),
        ya_(pp.n) {
    if (method != Method::kAdamsPece) {
      // One Jacobian plan serves every BDF segment.
      if (!base_.jac_plan) {
        base_.jac_plan = make_jac_plan(base_);
      }
      bdf_lanes_.emplace(base_, lane);
    }
  }

  template <typename OnRetire>
  void add(std::uint32_t scenario, std::span<const double> y0,
           OnRetire& on_retire) {
    MultistepLane L = make_lane(scenario, y0);
    L.y.assign(y0.begin(), y0.end());
    const std::size_t slot = vacant_slot();
    if (bdf_lanes_) {
      bdf_lanes_->seat(slot);
    }
    // kLsodaLike starts no segment on an empty span; the one-segment
    // methods still run their start-up.
    if (method_ != Method::kLsodaLike || L.t < p.tend) {
      begin(L, /*bdf=*/method_ == Method::kBdf, slot);
    } else {
      L.done = true;
    }
    join(std::move(L), on_retire);
  }

  template <typename OnRetire>
  void round(OnRetire& on_retire) {
    settle();
    bdf_.clear();
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      MultistepLane& L = lanes_[j];
      if (++L.attempts > o.max_steps) {
        throw omx::Error(std::string(method_name) + ": max_steps exceeded");
      }
      if (L.seg->adams) {
        adams_attempt(L);
      } else {
        bdf_.push_back(j);
      }
    }
    if (!bdf_.empty()) {
      bdf_lockstep();
    }
    retire_done(on_retire);
  }

 private:
  /// Closes the vacant slots; the BDF block re-strides to the live
  /// lanes, and their steppers follow their slots. A block a widening
  /// left wider than the lanes drops its empty slots.
  void settle() {
    const std::span<const std::size_t> keep = settle_slots();
    if (!bdf_lanes_) {
      return;
    }
    if (keep.empty()) {
      if (bdf_lanes_->width() > lanes_.size()) {
        bdf_lanes_->trim(lanes_.size());
      }
      return;
    }
    bdf_lanes_->restride(keep);
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if (lanes_[j].seg->bdf) {
        lanes_[j].seg->bdf->set_slot(j);
      }
    }
  }

  std::size_t slot_of(const MultistepLane& L) const {
    return static_cast<std::size_t>(&L - lanes_.data());
  }

  /// A stepper's state as a contiguous span.
  std::span<const double> state(AdamsStepper& st) { return st.y(); }
  std::span<const double> state(BdfStepper& st) { return st.y(ya_); }

  /// Starts a segment at the lane's (t, y). The stepper's start-up (the
  /// Adams history rebuild, the fixed-step BDF bootstrap) may already
  /// advance; that jump is swept for events like any other.
  void begin(MultistepLane& L, bool bdf, std::size_t slot) {
    SolverOptions so = o;
    if (method_ == Method::kLsodaLike) {
      so.bdf_fixed_h = 0.0;
      if (L.stats.method_switches > 0) {
        so.h0 = 0.0;  // h0 seeds the lane's first step only
      }
    }
    L.seg = std::make_unique<Segment>();
    Segment& s = *L.seg;
    s.p = base_;
    s.p.t0 = L.t;
    s.p.y0 = L.y;
    if (bdf) {
      s.bdf.emplace(s.p, so, *bdf_lanes_, slot);
    } else {
      s.adams.emplace(s.p, so, lane_);
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

  /// The attempts of the BDF lanes in bdf_, taken together.
  void bdf_lockstep() {
    steppers_.clear();
    for (const std::size_t j : bdf_) {
      steppers_.push_back(&*lanes_[j].seg->bdf);
    }
    bdf_lanes_->attempt(steppers_);
    for (std::size_t q = 0; q < bdf_.size(); ++q) {
      bdf_after(lanes_[bdf_[q]], steppers_[q]->accepted());
    }
  }

  /// The rest of a BDF lane's attempt, `accepted` or not: events, the
  /// record and kLsodaLike's switch back. L.t is still where the attempt
  /// began.
  void bdf_after(MultistepLane& L, bool accepted) {
    BdfStepper& st = *L.seg->bdf;
    const double t_prev = L.t;
    bool relaxed = false;
    if (accepted) {
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
        L.rec.append(st.t(), st.y_column(), st.y_stride());
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
      const std::span<const double> y = state(st);
      L.y.assign(y.begin(), y.end());
      return st.h();
    });
    end_segment(L);
    ++L.stats.method_switches;
    obs::record_step(obs::StepEventKind::kMethodSwitch, bdf ? "bdf" : "adams",
                     0, L.t, h, 0.0);
    if (L.t < p.tend) {
      begin(L, bdf, slot_of(L));
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
            L.events.check(t_prev, st.t(), state(st), method_name, st.stats(),
                           [&] { return dense(st, t_prev, L.yprev); });
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
  static DenseOutput dense(AdamsStepper& st, double t0,
                           std::span<const double> y0) {
    Vec f0(y0.size()), f1(y0.size());
    st.rhs()(t0, y0, f0);
    st.rhs()(st.t(), st.y(), f1);
    st.stats().rhs_calls += 2;
    return DenseOutput::hermite(t0, y0, f0, st.t(), st.y(), f1);
  }

  /// BDF localizes on its own history polynomial.
  static DenseOutput dense(BdfStepper& st, double,
                           std::span<const double>) {
    return st.last_step_dense();
  }

  Method method_;
  std::size_t lane_;  // this worker's kernel lane
  Problem base_;      // the base problem with every BDF segment's plan
  // The BDF lanes' block (every method but kAdamsPece), the lane slots of
  // a round's BDF lanes and their steppers.
  std::optional<BdfLanes> bdf_lanes_;
  std::vector<std::size_t> bdf_;
  std::vector<BdfStepper*> steppers_;
  Vec ya_;  // one BDF lane's gathered state
};

// ----------------------------------------------------------- scheduling

/// The scenarios' semi-dynamic LPT (§3.2.3): a static deal that is
/// corrected only where a worker runs dry. A worker tops its batch up
/// from the back of its own deal (pop); it steals from the front of the
/// most-loaded deal only once its own is spent, and then only into a
/// batch that has run empty or into slots its retired lanes left, so one
/// thread starting early cannot take its siblings' deals into one wide
/// batch while they sit idle. One mutex guards every deal: each take is
/// followed by a whole scenario's solve, so the lock costs nothing
/// measurable.
class WorkSource {
 public:
  // Equal scenario weights: LPT degenerates to a deterministic
  // round-robin card deal, which is exactly the right seed — stealing
  // absorbs the *runtime* imbalance of scenarios that converge at
  // different speeds.
  WorkSource(std::size_t num_workers, std::size_t num_scenarios)
      : deals_(sched::lpt_schedule(std::vector<double>(num_scenarios, 1.0),
                                   num_workers)),
        front_(num_workers, 0) {}

  /// Takes the next scenario of the worker's own deal.
  bool pop(std::size_t w, std::uint32_t& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint32_t>& deal = deals_[w];
    if (deal.size() == front_[w]) {
      return false;
    }
    s = deal.back();
    deal.pop_back();
    return true;
  }

  /// Steals from the most-loaded other deal. Returns false only when
  /// every other deal is spent.
  bool steal(std::size_t w, std::uint32_t& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t victim = deals_.size();
    std::size_t best = 0;
    for (std::size_t v = 0; v < deals_.size(); ++v) {
      const std::size_t left = deals_[v].size() - front_[v];
      if (v != w && left > best) {
        best = left;
        victim = v;
      }
    }
    if (victim == deals_.size()) {
      return false;
    }
    s = deals_[victim][front_[victim]++];
    return true;
  }

 private:
  std::mutex mutex_;
  sched::Schedule deals_;
  std::vector<std::size_t> front_;  // each deal's first untaken scenario
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
                  std::size_t lane, TrajectorySink& sink, F&& f) {
  switch (method) {
    case Method::kExplicitEuler:
    case Method::kRk4: {
      FixedStepper st(p, o, method, lane, sink);
      f(st);
      return;
    }
    case Method::kDopri5: {
      Dopri5Stepper st(p, o, lane, sink);
      f(st);
      return;
    }
    case Method::kAdamsPece:
    case Method::kBdf:
    case Method::kLsodaLike: {
      MultistepStepper st(p, o, method, lane, sink);
      f(st);
      return;
    }
  }
  throw omx::Bug("unknown ode::Method");
}

/// One ensemble worker: keeps its stepper's batch topped up to
/// `max_batch` lanes from its own deal, a retired lane's slot refilled in
/// place, and runs rounds until no scenario is left. Once the own deal is
/// spent it steals (WorkSource): a slot a lane retired from is refilled
/// by stealing, and an empty batch fills by stealing. A batch never grows
/// by stealing otherwise, so a worker that starts early cannot take its
/// siblings' deals. Lane events and the cancel message carry the Method's
/// name.
template <typename Stepper>
void run_batched_worker(Stepper& st, Method method, WorkSource& ws,
                        std::size_t w, std::size_t max_batch,
                        const EnsembleSpec& spec, LaneLedger& ledger) {
  const char* const name = to_string(method);
  // The worker's run is one method span, as a single solve is.
  obs::Span span(name, "ode");
  std::size_t vacated = 0;  // slots lanes retired from since the top-up
  auto on_retire = [&](const LaneCore& L) {
    ledger.retired(name, L.scenario, L.stats, L.event_stopped,
                   L.event_stopped ? L.t : st.p.tend);
    ledger.left();
    ++vacated;
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
    bool dry = false;  // own deal and batch both empty: fill by stealing
    while (st.active() < max_batch) {
      if (!ws.pop(w, s)) {
        dry = dry || st.active() == 0;
        if (!(dry || vacated > 0) || !ws.steal(w, s)) {
          break;
        }
      }
      vacated -= vacated > 0 ? 1 : 0;
      obs::record_lane(mid_flight ? obs::StepEventKind::kLaneRefill
                                  : obs::StepEventKind::kLanePack,
                       name, s, st.p.t0);
      ledger.joined();
      st.add(s, spec.initial_states[s], on_retire);
    }
    vacated = 0;
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
  with_stepper(p, method, opts, 0, sink, [&](auto& st) {
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

  // Derive the stiff methods' Jacobian pattern and coloring ONCE here and
  // share the immutable plan across every lane's solver instead of
  // re-deriving it per scenario.
  Problem base = p;
  if ((method == Method::kBdf || method == Method::kLsodaLike) &&
      !base.jac_plan) {
    base.jac_plan = make_jac_plan(base);
    jac_plans_built_counter().add();
    jac_plan_reuse_counter().add(ns - 1);
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

  auto worker = [&](std::size_t w) {
    try {
      with_stepper(base, method, opts, w, sink, [&](auto& st) {
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
