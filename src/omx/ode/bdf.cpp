#include "omx/ode/bdf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "omx/obs/trace.hpp"

namespace omx::ode {

namespace {

// Uniform-grid BDF-k:  y_{n+1} = sum_{i=1..k} a[i-1] * y_{n+1-i}
//                               + beta * h * f(t_{n+1}, y_{n+1}).
struct BdfCoeffs {
  double a[5];
  double beta;
};

const BdfCoeffs kBdf[5] = {
    {{1.0, 0, 0, 0, 0}, 1.0},
    {{4.0 / 3, -1.0 / 3, 0, 0, 0}, 2.0 / 3},
    {{18.0 / 11, -9.0 / 11, 2.0 / 11, 0, 0}, 6.0 / 11},
    {{48.0 / 25, -36.0 / 25, 16.0 / 25, -3.0 / 25, 0}, 12.0 / 25},
    {{300.0 / 137, -300.0 / 137, 200.0 / 137, -75.0 / 137, 12.0 / 137},
     60.0 / 137},
};

// Lagrange extrapolation of the `points` most recent uniform history
// points to the next grid point (the Newton predictor and error
// reference): uniform nodes x = 0 (newest), -1, -2, ... evaluated at
// x = +1, binomial coefficients.
const double kExtrap[6][6] = {
    {1, 0, 0, 0, 0, 0},       {2, -1, 0, 0, 0, 0},
    {3, -3, 1, 0, 0, 0},      {4, -6, 4, -1, 0, 0},
    {5, -10, 10, -5, 1, 0},   {6, -15, 20, -15, 6, -1},
};

// RK4 substeps per interval of the fixed-step mode's start-up and final
// interval, which must not contaminate the BDF-k convergence order.
constexpr int kRk4Substeps = 20;

}  // namespace

// ------------------------------------------------------------ BdfLanes

BdfLanes::BdfLanes(const Problem& p, std::size_t lane)
    : p_(p),
      f_(p, lane),
      blk_(p.n, kG + 1, kHistory),
      col_(p.n),
      ya_(p.n),
      fa_(p.n),
      wa_(p.n) {}

void BdfLanes::seat(std::size_t slot) {
  blk_.widen(slot);
  const std::size_t w = blk_.width();
  if (engines_.size() < w) {
    engines_.resize(w);
  }
  if (at_.size() >= w) {
    return;  // the scratch below only grows
  }
  at_.resize(w);
  for (simd::aligned_vector<double>* v : {&ts_, &bh_, &kp1_, &atol_, &rtol_,
                                          &acc_, &yc_, &fc_, &tc_}) {
    v->resize(v == &yc_ || v == &fc_ ? p_.n * w : w);
  }
  for (std::vector<std::size_t>* v : {&began_, &iterating_}) {
    v->reserve(w);
  }
  for (std::vector<std::size_t>& v : oldest_) {
    v.reserve(w);
  }
  solvers_.reserve(w);
  groups_.resize(w);
  for (Group& g : groups_) {
    g.lanes.reserve(w);
  }
}

void BdfLanes::restride(std::span<const std::size_t> keep) {
  blk_.restride(keep);
  for (std::size_t j = 0; j < keep.size(); ++j) {
    if (keep[j] != j) {
      engines_[j] = std::move(engines_[keep[j]]);
    }
  }
  engines_.resize(keep.size());
}

JacobianEngine& BdfLanes::engine(std::size_t slot) {
  if (!engines_[slot]) {
    engines_[slot] = std::make_unique<JacobianEngine>(p_, f_);
  }
  return *engines_[slot];
}

std::span<const double> BdfLanes::column(std::size_t a, std::size_t j,
                                         std::vector<double>& into) {
  if (width() == 1) {
    return {blk_[a], p_.n};
  }
  gather(blk_[a], width(), j, into);
  return into;
}

void BdfLanes::attempt(std::span<BdfStepper* const> lanes) {
  const std::size_t n = p_.n, w = width();
  began_.clear();
  for (BdfStepper* st : lanes) {
    const std::size_t j = st->slot_;
    at_[j] = st;
    if (st->begin()) {
      const BdfStepper::Attempt& a = st->attempt_;
      began_.push_back(j);
      ts_[j] = st->t_ + a.h;
      bh_[j] = a.beta_h;
      kp1_[j] = static_cast<double>(a.k + 1);
      atol_[j] = st->opts_.tol.atol;
      rtol_[j] = st->opts_.tol.rtol;
    }
  }
  if (began_.empty()) {
    return;
  }
  predict();
  iterating_.clear();
  solvers_.clear();
  for (const std::size_t j : began_) {
    if (at_[j]->prepare()) {
      iterating_.push_back(j);
      solvers_.push_back(at_[j]->solver_);
      acc_[j] = 0.0;
    }
  }

  double* y = blk_[kYnew];
  double* f = blk_[kF];
  double* g = blk_[kG];
  const double* pred = blk_[kPred];
  const double* wt = blk_[kW];
  const double* rc = blk_[kRc];
  const double* bh = bh_.data();
  const double* kp1 = kp1_.data();
  const double* atol = atol_.data();
  const double* rtol = rtol_.data();
  double* acc = acc_.data();
  const double dn = static_cast<double>(n);
  while (!iterating_.empty()) {
    eval_rhs();
    for_lanes(n, w, iterating_, [&](std::size_t e, std::size_t j) {
      g[e] = y[e] - bh[j] * f[e] - rc[e];
    });
    lane_solver_.solve(solvers_, iterating_, w, g, g);
    // The correction dy = g: y -= dy, and dy's weighted RMS norm at the
    // predictor's error weights, summed along i per lane.
    for_lanes(n, w, iterating_, [&](std::size_t e, std::size_t j) {
      y[e] -= g[e];
      const double q = g[e] / wt[e];
      acc[j] += q * q;
    });
    // Each lane's iteration count and decision; the lanes that go on
    // keep their order, with their (possibly refreshed) factorizations.
    std::size_t kept = 0;
    for (const std::size_t j : iterating_) {
      BdfStepper& st = *at_[j];
      ++st.stats_.rhs_calls;
      ++st.stats_.newton_iters;
      st.last_newton_iters_ = ++st.iter_;
      if (st.newton_control(std::sqrt(acc[j] / dn))) {
        acc[j] = 0.0;
        solvers_[kept] = st.solver_;
        iterating_[kept++] = j;
      }
    }
    iterating_.resize(kept);
    solvers_.resize(kept);
  }

  // Error norm of (corrector - predictor) / (k + 1) at the corrector's
  // error weights.
  for (const std::size_t j : began_) {
    acc[j] = 0.0;
  }
  for_lanes(n, w, began_, [&](std::size_t e, std::size_t j) {
    const double d = (y[e] - pred[e]) / kp1[j];
    const double q = d / (atol[j] + rtol[j] * std::fabs(y[e]));
    acc[j] += q * q;
  });
  // The corrector goes to the array of the lane's oldest history point,
  // which no outcome keeps: an accepted step's push is then a rotation of
  // the lane's map. One copy per array, over the lanes whose oldest
  // point it holds.
  const auto copy = [&](std::size_t a, std::span<const std::size_t> to) {
    double* h = blk_[a];
    for_lanes(n, w, to, [&](std::size_t e, std::size_t) { h[e] = y[e]; });
  };
  if (began_.size() == 1) {  // ode::solve: one array
    copy(at_[began_[0]]->map_[kHistory - 1], began_);
  } else {
    for (std::vector<std::size_t>& v : oldest_) {
      v.clear();
    }
    for (const std::size_t j : began_) {
      oldest_[at_[j]->map_[kHistory - 1]].push_back(j);
    }
    for (std::size_t a = 0; a < kHistory; ++a) {
      copy(a, oldest_[a]);
    }
  }
  for (const std::size_t j : began_) {
    at_[j]->finish(std::sqrt(acc[j] / dn));
  }
}

void BdfLanes::predict() {
  using Pass = void (BdfLanes::*)(std::span<const std::size_t>,
                                  const std::uint8_t*);
  static constexpr Pass kPass[10] = {
      &BdfLanes::predict_group<1, 1>, &BdfLanes::predict_group<1, 2>,
      &BdfLanes::predict_group<2, 2>, &BdfLanes::predict_group<2, 3>,
      &BdfLanes::predict_group<3, 3>, &BdfLanes::predict_group<3, 4>,
      &BdfLanes::predict_group<4, 4>, &BdfLanes::predict_group<4, 5>,
      &BdfLanes::predict_group<5, 5>, &BdfLanes::predict_group<5, 6>};
  const auto cls = [](const BdfStepper::Attempt& a) {
    return 2 * (a.k - 1) + (a.points - a.k);
  };
  if (began_.size() == 1) {  // ode::solve: nothing to group
    const BdfStepper& st = *at_[began_[0]];
    (this->*kPass[cls(st.attempt_)])(began_, st.map_.data());
    return;
  }
  std::size_t groups = 0;
  for (const std::size_t j : began_) {
    const BdfStepper& st = *at_[j];
    const BdfStepper::Attempt& a = st.attempt_;
    const std::uint8_t* map = st.map_.data();
    std::size_t g = 0;
    while (g < groups &&
           !(groups_[g].cls == cls(a) &&
             std::equal(map, map + a.points, groups_[g].map))) {
      ++g;
    }
    if (g == groups) {
      groups_[g].cls = cls(a);
      groups_[g].map = map;
      groups_[g].lanes.clear();
      ++groups;
    }
    groups_[g].lanes.push_back(j);
  }
  for (std::size_t g = 0; g < groups; ++g) {
    (this->*kPass[groups_[g].cls])(groups_[g].lanes, groups_[g].map);
  }
}

template <int K, int Points>
void BdfLanes::predict_group(std::span<const std::size_t> lanes,
                             const std::uint8_t* map) {
  const std::size_t n = p_.n, w = width();
  const double* a = kBdf[K - 1].a;
  const double* c = kExtrap[Points - 1];
  const double* h[Points];
  for (int p = 0; p < Points; ++p) {
    h[p] = blk_[map[p]];
  }
  const double* atol = atol_.data();
  const double* rtol = rtol_.data();
  double* y = blk_[kYnew];
  double* pred = blk_[kPred];
  double* wt = blk_[kW];
  double* rc = blk_[kRc];
  // predictor = sum_p c[p] y_{n-p} and rc = sum_{p<k} a[p] y_{n-p}, each
  // summed from 0 in point order; the iterate starts at the predictor,
  // and the Newton norms weigh errors at the predictor.
  for_lanes(n, w, lanes, [&](std::size_t e, std::size_t j) {
    double pr = 0.0, r = 0.0;
    for (int p = 0; p < Points; ++p) {
      const double x = h[p][e];
      pr += c[p] * x;
      if (p < K) {
        r += a[p] * x;
      }
    }
    y[e] = pr;
    pred[e] = pr;
    wt[e] = atol[j] + rtol[j] * std::fabs(pr);
    rc[e] = r;
  });
}

void BdfLanes::eval_rhs() {
  const std::size_t n = p_.n, w = width(), m = iterating_.size();
  const double* y = blk_[kYnew];
  double* f = blk_[kF];
  if (m == w) {
    f_(w, ts_.data(), y, f);
    return;
  }
  // A thinned iteration: the lanes still iterating, compacted.
  for (std::size_t q = 0; q < m; ++q) {
    tc_[q] = ts_[iterating_[q]];
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t q = 0; q < m; ++q) {
      yc_[i * m + q] = y[i * w + iterating_[q]];
    }
  }
  f_(m, tc_.data(), yc_.data(), fc_.data());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t q = 0; q < m; ++q) {
      f[i * w + iterating_[q]] = fc_[i * m + q];
    }
  }
}

// ---------------------------------------------------------- BdfStepper

BdfStepper::BdfStepper(const Problem& p, const SolverOptions& opts,
                       BdfLanes& lanes, std::size_t slot)
    : p_(p), opts_(opts), lanes_(lanes), slot_(slot) {
  OMX_REQUIRE(opts_.bdf_max_order >= 1 && opts_.bdf_max_order <= 5,
              "BDF order must be in 1..5");
  lanes.seat(slot);
  jac_ = &lanes.engine(slot);
  double h = opts.bdf_fixed_h > 0.0 ? opts.bdf_fixed_h : opts.h0;
  restart(p.t0, p.y0, h);
}

void BdfStepper::restart(double t, std::span<const double> y, double h) {
  t_ = t;
  hist_len_ = 0;
  push_history(y);
  order_ = 1;
  jac_->invalidate();
  const double hmax = opts_.hmax > 0.0 ? opts_.hmax : (p_.tend - p_.t0);
  if (h > 0.0) {
    h_ = std::min(h, hmax);
  } else {
    std::vector<double>& f = lanes_.fa_;
    lanes_.f_(t_, y, f);
    ++stats_.rhs_calls;
    h_ = initial_step(y, f, opts_.tol, p_.tend - p_.t0, hmax, lanes_.wa_);
  }

  if (opts_.bdf_fixed_h > 0.0 && opts_.bdf_max_order > 1) {
    // Fixed-step mode: bootstrap an accurate uniform history with finely
    // sub-stepped RK4 so every subsequent step is pure order-k BDF (the
    // convergence-order tests rely on this).
    std::vector<double>& ycur = lanes_.ya_;
    ycur.assign(y.begin(), y.end());
    for (int m = 1; m < opts_.bdf_max_order; ++m) {
      rk4_substeps(lanes_.f_, t_, h_, kRk4Substeps, ycur, lanes_.rk4_,
                   stats_);
      t_ += h_;
      ++stats_.steps;
      push_history(ycur);
    }
    order_ = opts_.bdf_max_order;
  }
}

void BdfStepper::push_history(std::span<const double> y) {
  std::rotate(map_.begin(), map_.end() - 1, map_.end());
  scatter(y, lanes_.blk_[map_[0]], lanes_.width(), slot_);
  hist_len_ = std::min(hist_len_ + 1, kHistory);
}

std::span<const double> BdfStepper::y(std::vector<double>& into) const {
  return lanes_.column(map_[0], slot_, into);
}

const double* BdfStepper::y_column() const {
  return lanes_.blk_[map_[0]] + slot_;
}

DenseOutput BdfStepper::last_step_dense() const {
  std::vector<std::vector<double>> nodes(last_dense_points_,
                                         std::vector<double>(p_.n));
  for (std::size_t p = 0; p < last_dense_points_; ++p) {
    gather(lanes_.blk_[map_[p]], lanes_.width(), slot_, nodes[p]);
  }
  return DenseOutput::lagrange(t_, last_node_h_, nodes, last_dense_points_);
}

bool BdfStepper::step() {
  BdfStepper* const self = this;
  lanes_.attempt({&self, 1});
  return accepted_;
}

bool BdfStepper::begin() {
  const bool fixed = opts_.bdf_fixed_h > 0.0;
  const double rem = p_.tend - t_;
  // Treat a remainder within roundoff of h_ as a full step.
  const bool full_step = rem >= h_ * (1.0 - 1e-9);
  const double h = full_step ? std::min(h_, rem) : rem;
  const bool clipped = !full_step;
  if (fixed && clipped) {
    // Fixed-step mode exists for order measurements: finish the partial
    // final interval with finely sub-stepped RK4.
    std::vector<double>& ycur = lanes_.ya_;
    gather(lanes_.blk_[map_[0]], lanes_.width(), slot_, ycur);
    rk4_substeps(lanes_.f_, t_, h, kRk4Substeps, ycur, lanes_.rk4_, stats_);
    t_ = p_.tend;
    push_history(ycur);
    ++stats_.steps;
    last_node_h_ = h;
    last_dense_points_ = 2;
    accepted_ = true;
    return false;
  }
  // Clipping the final step changes the grid spacing; drop to order 1
  // (backward Euler) for that step, which needs no uniform history.
  const int k = clipped ? 1 : order_;
  attempt_ = {.h = h,
              .rem = rem,
              .beta_h = kBdf[k - 1].beta * h,
              .k = k,
              .points = std::min(k + 1, static_cast<int>(hist_len_)),
              .clipped = clipped};
  return true;
}

bool BdfStepper::prepare() {
  // The Jacobian is evaluated at the iterate's start, the predictor.
  const std::span<const double> y =
      jac_->stale() ? lanes_.column(BdfLanes::kYnew, slot_, lanes_.col_)
                    : std::span<const double>{};
  solver_ = &jac_->prepare(t_ + attempt_.h, y, attempt_.beta_h, stats_);
  iter_ = 0;
  prev_norm_ = std::numeric_limits<double>::infinity();
  refreshed_ = false;
  converged_ = false;
  return opts_.newton_max_iters > 0;
}

bool BdfStepper::newton_control(double dn) {
  if (dn < 0.01) {  // displacement well below the error tolerance scale
    converged_ = true;
    return false;
  }
  if (dn > prev_norm_ && !refreshed_) {
    // Diverging: refresh Jacobian at the current iterate once.
    jac_->force_refresh();
    solver_ = &jac_->prepare(
        t_ + attempt_.h, lanes_.column(BdfLanes::kYnew, slot_, lanes_.col_),
        attempt_.beta_h, stats_);
    refreshed_ = true;
    prev_norm_ = std::numeric_limits<double>::infinity();
  } else {
    prev_norm_ = dn;
  }
  return iter_ < opts_.newton_max_iters;
}

void BdfStepper::finish(double err) {
  const bool fixed = opts_.bdf_fixed_h > 0.0;
  const double h = attempt_.h;
  const int k = attempt_.k;
  const bool clipped = attempt_.clipped;
  accepted_ = false;
  if (!converged_) {
    // Newton failed: refresh everything with a smaller step.
    ++stats_.rejected;
    obs::record_step(obs::StepEventKind::kNewtonFail, "bdf",
                     static_cast<std::uint16_t>(k), t_, h, 0.0);
    h_ *= 0.25;
    jac_->invalidate();
    if (h_ < 1e-14 * std::max(1.0, std::fabs(t_))) {
      throw omx::Error("bdf: Newton failure with vanishing step at t = " +
                       std::to_string(t_));
    }
    hist_len_ = 1;
    order_ = 1;
    return;
  }

  // Error estimate: difference between corrector and predictor, scaled by
  // the method constant ~ 1/(k+1).
  if (fixed) {
    err = 0.0;
  } else if (hist_len_ == 1) {
    // During the order ramp the extrapolation predictor is one order
    // lower than the corrector, so the difference overestimates the local
    // error; de-weight it rather than thrash on spurious rejections.
    err = std::min(err, 0.5);
  } else if (static_cast<int>(hist_len_) < k + 1) {
    err *= 0.25;
  }

  if (fixed || err <= 1.0) {
    t_ += h;
    // The corrector is already in the oldest point's array.
    std::rotate(map_.begin(), map_.end() - 1, map_.end());
    hist_len_ = std::min(hist_len_ + 1, kHistory);
    if (!clipped && order_ < opts_.bdf_max_order &&
        static_cast<int>(hist_len_) > order_) {
      ++order_;
    }
    ++stats_.steps;
    obs::record_step(obs::StepEventKind::kStepAccepted, "bdf",
                     static_cast<std::uint16_t>(k), t_, h, err);
    jac_->on_step_accepted(last_newton_iters_);
    // Step growth: double h by SUBSAMPLING the uniform history (every
    // second point is exactly a history at spacing 2h) — no reset, no
    // interpolation error, no order collapse.
    if (!fixed && !clipped) {
      const double fac =
          0.9 * std::pow(std::max(err, 1e-10), -1.0 / (k + 1));
      const double hmax =
          opts_.hmax > 0.0 ? opts_.hmax : (p_.tend - p_.t0);
      if (fac > 2.0 && attempt_.rem > 8.0 * h_ && hist_len_ >= 3 &&
          2.0 * h_ <= hmax) {
        // Keep the even points: point 2i moves to place i. Place 2i lies
        // past every place an earlier swap touched, so it still holds
        // point 2i.
        const std::size_t kept = (hist_len_ + 1) / 2;
        for (std::size_t i = 1; i < kept; ++i) {
          std::swap(map_[i], map_[2 * i]);
        }
        hist_len_ = kept;
        h_ *= 2.0;
        order_ = std::min<int>(order_, static_cast<int>(hist_len_));
        // No invalidate: the beta*h change alone makes the next
        // prepare() refactor, reusing the still-fresh Jacobian values.
      }
    }
    // Refresh the dense-output node geometry after any subsampling: the
    // history is uniform at the CURRENT h_, and a clipped final step
    // only guarantees its own two endpoints.
    if (clipped) {
      last_node_h_ = h;
      last_dense_points_ = 2;
    } else {
      last_node_h_ = h_;
      last_dense_points_ =
          std::min<std::size_t>(static_cast<std::size_t>(k) + 1, hist_len_);
    }
    accepted_ = true;
    return;
  }

  ++stats_.rejected;
  obs::record_step(obs::StepEventKind::kStepRejected, "bdf",
                   static_cast<std::uint16_t>(k), t_, h, err);
  h_ *= std::clamp(0.9 * std::pow(err, -1.0 / (k + 1)), 0.1, 0.5);
  hist_len_ = 1;
  order_ = 1;
  jac_->invalidate();
  if (h_ < 1e-14 * std::max(1.0, std::fabs(t_))) {
    throw omx::Error("bdf: step size underflow at t = " + std::to_string(t_));
  }
}

}  // namespace omx::ode
