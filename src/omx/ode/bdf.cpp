#include "omx/ode/bdf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "omx/obs/recorder.hpp"

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

/// Lagrange extrapolation of the k+1 most recent uniform history points to
/// the next grid point (the Newton predictor and error reference).
void extrapolate(const std::vector<std::vector<double>>& hist, int points,
                 std::span<double> out) {
  // Uniform nodes x = 0 (newest), -1, -2, ...; evaluate at x = +1.
  // Coefficients are binomial: sum_{j} (-1)^j C(points, j+1) ... simplest
  // closed forms for the small orders used here.
  static const double kExtrap[5][5] = {
      {1, 0, 0, 0, 0},
      {2, -1, 0, 0, 0},
      {3, -3, 1, 0, 0},
      {4, -6, 4, -1, 0},
      {5, -10, 10, -5, 1},
  };
  const std::size_t n = out.size();
  const double* c = kExtrap[points - 1];
  // out[i] = 0 + c[0] h0[i] + c[1] h1[i] + ..., each element's sum in
  // point order; a pass per point keeps that order and vectorizes.
  std::fill(out.begin(), out.end(), 0.0);
  for (int j = 0; j < points; ++j) {
    const double* h = hist[static_cast<std::size_t>(j)].data();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += c[j] * h[i];
    }
  }
}

}  // namespace

BdfStepper::BdfStepper(const Problem& p, const SolverOptions& opts)
    : p_(p),
      opts_(opts),
      jac_engine_(p, JacobianEngine::Config{}),
      history_(kHistory, std::vector<double>(p.n)),
      rhs_const_(p.n),
      predictor_(p.n),
      ynew_(p.n),
      w_(p.n),
      f_(p.n),
      g_(p.n),
      dy_(p.n) {
  OMX_REQUIRE(opts_.bdf_max_order >= 1 && opts_.bdf_max_order <= 5,
              "BDF order must be in 1..5");
  double h = opts.bdf_fixed_h > 0.0 ? opts.bdf_fixed_h : opts.h0;
  restart(p.t0, p.y0, h);
}

void BdfStepper::restart(double t, std::span<const double> y, double h) {
  t_ = t;
  hist_len_ = 0;
  push_history(y);
  order_ = 1;
  jac_engine_.invalidate();
  if (h > 0.0) {
    h_ = h;
  } else {
    // Hairer's d0/d1 heuristic (see adams.cpp), in the step scratch.
    p_.rhs(t_, y, f_);
    ++stats_.rhs_calls;
    error_weights(y, opts_.tol, w_);
    const double d0 = la::wrms_norm(y, w_);
    const double d1 = la::wrms_norm(f_, w_);
    h_ = (d0 > 1e-5 && d1 > 1e-5) ? 0.01 * d0 / d1
                                  : 1e-3 * (p_.tend - p_.t0);
  }
  const double hmax = opts_.hmax > 0.0 ? opts_.hmax : (p_.tend - p_.t0);
  h_ = std::min(h_, hmax);

  if (opts_.bdf_fixed_h > 0.0 && opts_.bdf_max_order > 1) {
    // Fixed-step mode: bootstrap an accurate uniform history with finely
    // sub-stepped RK4 so every subsequent step is pure order-k BDF (the
    // convergence-order tests rely on this).
    std::vector<double> ycur(history_.front());
    std::vector<double> k1(p_.n), k2(p_.n), k3(p_.n), k4(p_.n), tmp(p_.n),
        next(p_.n);
    for (int m = 1; m < opts_.bdf_max_order; ++m) {
      const int sub = 20;
      const double hs = h_ / sub;
      double ts = t_;
      for (int s = 0; s < sub; ++s) {
        p_.rhs(ts, ycur, k1);
        for (std::size_t i = 0; i < p_.n; ++i)
          tmp[i] = ycur[i] + 0.5 * hs * k1[i];
        p_.rhs(ts + 0.5 * hs, tmp, k2);
        for (std::size_t i = 0; i < p_.n; ++i)
          tmp[i] = ycur[i] + 0.5 * hs * k2[i];
        p_.rhs(ts + 0.5 * hs, tmp, k3);
        for (std::size_t i = 0; i < p_.n; ++i)
          tmp[i] = ycur[i] + hs * k3[i];
        p_.rhs(ts + hs, tmp, k4);
        stats_.rhs_calls += 4;
        for (std::size_t i = 0; i < p_.n; ++i) {
          ycur[i] += hs / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        ts += hs;
      }
      t_ += h_;
      ++stats_.steps;
      push_history(ycur);
    }
    order_ = opts_.bdf_max_order;
  }
}

void BdfStepper::push_history(std::span<const double> y) {
  std::rotate(history_.begin(), history_.end() - 1, history_.end());
  std::copy(y.begin(), y.end(), history_.front().begin());
  hist_len_ = std::min(hist_len_ + 1, kHistory);
}

bool BdfStepper::step() {
  if (begin_step()) {
    do {
      p_.rhs(newton_t(), ynew_, f_);
      newton_residual(f_.data(), g_.data(), 1);
      solver_->solve(g_, dy_);
    } while (newton_update(dy_.data(), 1));
  }
  return finish_step();
}

bool BdfStepper::begin_step() {
  const std::size_t n = p_.n;
  const bool fixed = opts_.bdf_fixed_h > 0.0;
  const double rem = p_.tend - t_;
  // Treat a remainder within roundoff of h_ as a full step.
  const bool full_step = rem >= h_ * (1.0 - 1e-9);
  const double h = full_step ? std::min(h_, rem) : rem;
  const bool clipped = !full_step;
  if (fixed && clipped) {
    // Fixed-step mode exists for order measurements: finish the partial
    // final interval with finely sub-stepped RK4 so its error cannot
    // contaminate the BDF-k convergence order.
    std::vector<double> ycur(history_.front());
    std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);
    const int sub = 20;
    const double hs = h / sub;
    double ts = t_;
    for (int s = 0; s < sub; ++s) {
      p_.rhs(ts, ycur, k1);
      for (std::size_t i = 0; i < n; ++i) tmp[i] = ycur[i] + 0.5 * hs * k1[i];
      p_.rhs(ts + 0.5 * hs, tmp, k2);
      for (std::size_t i = 0; i < n; ++i) tmp[i] = ycur[i] + 0.5 * hs * k2[i];
      p_.rhs(ts + 0.5 * hs, tmp, k3);
      for (std::size_t i = 0; i < n; ++i) tmp[i] = ycur[i] + hs * k3[i];
      p_.rhs(ts + hs, tmp, k4);
      stats_.rhs_calls += 4;
      for (std::size_t i = 0; i < n; ++i) {
        ycur[i] += hs / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
      }
      ts += hs;
    }
    t_ = p_.tend;
    push_history(ycur);
    ++stats_.steps;
    last_node_h_ = h;
    last_dense_points_ = 2;
    attempt_.finished = true;
    return false;
  }
  // Clipping the final step changes the grid spacing; drop to order 1
  // (backward Euler) for that step, which needs no uniform history.
  const int k = clipped ? 1 : order_;
  const BdfCoeffs& c = kBdf[k - 1];
  attempt_ = {.h = h,
              .rem = rem,
              .beta_h = c.beta * h,
              .k = k,
              .clipped = clipped,
              .finished = false};

  // rhs_const = sum a_i y_{n+1-i}; predictor = extrapolation.
  std::fill(rhs_const_.begin(), rhs_const_.end(), 0.0);
  for (int i = 0; i < k; ++i) {
    const auto& yi = history_[static_cast<std::size_t>(i)];
    for (std::size_t j = 0; j < n; ++j) {
      rhs_const_[j] += c.a[i] * yi[j];
    }
  }
  extrapolate(history_, std::min<int>(k + 1, static_cast<int>(hist_len_)),
              predictor_);

  // Newton iterates in ynew_, starting from the predictor.
  std::copy(predictor_.begin(), predictor_.end(), ynew_.begin());
  error_weights(predictor_, opts_.tol, w_);
  solver_ = &jac_engine_.prepare(newton_t(), ynew_, attempt_.beta_h, stats_);
  iter_ = 0;
  prev_norm_ = std::numeric_limits<double>::infinity();
  refreshed_ = false;
  converged_ = false;
  return opts_.newton_max_iters > 0;
}

void BdfStepper::newton_residual(const double* f, double* g,
                                 std::size_t stride) {
  ++stats_.rhs_calls;
  ++stats_.newton_iters;
  last_newton_iters_ = ++iter_;
  for (std::size_t i = 0; i < p_.n; ++i) {
    g[i * stride] = ynew_[i] - attempt_.beta_h * f[i * stride] - rhs_const_[i];
  }
}

bool BdfStepper::newton_update(const double* dy, std::size_t stride) {
  for (std::size_t i = 0; i < p_.n; ++i) {
    dy_[i] = dy[i * stride];
    ynew_[i] -= dy_[i];
  }
  const double dn = la::wrms_norm(dy_, w_);
  if (dn < 0.01) {  // displacement well below the error tolerance scale
    converged_ = true;
    return false;
  }
  if (dn > prev_norm_ && !refreshed_) {
    // Diverging: refresh Jacobian at the current iterate once.
    jac_engine_.force_refresh();
    solver_ = &jac_engine_.prepare(newton_t(), ynew_, attempt_.beta_h, stats_);
    refreshed_ = true;
    prev_norm_ = std::numeric_limits<double>::infinity();
  } else {
    prev_norm_ = dn;
  }
  return iter_ < opts_.newton_max_iters;
}

bool BdfStepper::finish_step() {
  if (attempt_.finished) {
    return true;
  }
  const std::size_t n = p_.n;
  const bool fixed = opts_.bdf_fixed_h > 0.0;
  const double h = attempt_.h;
  const int k = attempt_.k;
  const bool clipped = attempt_.clipped;
  if (!converged_) {
    // Newton failed: refresh everything with a smaller step.
    ++stats_.rejected;
    obs::record_step(obs::StepEventKind::kNewtonFail, "bdf",
                     static_cast<std::uint16_t>(k), t_, h, 0.0);
    h_ *= 0.25;
    jac_engine_.invalidate();
    if (h_ < 1e-14 * std::max(1.0, std::fabs(t_))) {
      throw omx::Error("bdf: Newton failure with vanishing step at t = " +
                       std::to_string(t_));
    }
    hist_len_ = 1;
    order_ = 1;
    return false;
  }

  // Error estimate: difference between corrector and predictor, scaled by
  // the method constant ~ 1/(k+1).
  double err = 0.0;
  if (!fixed) {
    std::vector<double>& diff = dy_;
    for (std::size_t i = 0; i < n; ++i) {
      diff[i] = (ynew_[i] - predictor_[i]) / static_cast<double>(k + 1);
    }
    error_weights(ynew_, opts_.tol, w_);
    err = la::wrms_norm(diff, w_);
    // During the order ramp the extrapolation predictor is one order lower
    // than the corrector, so the difference overestimates the local error;
    // de-weight it rather than thrash on spurious rejections.
    if (hist_len_ == 1) {
      err = std::min(err, 0.5);
    } else if (static_cast<int>(hist_len_) < k + 1) {
      err *= 0.25;
    }
  }

  if (fixed || err <= 1.0) {
    t_ += h;
    push_history(ynew_);
    if (!clipped && order_ < opts_.bdf_max_order &&
        static_cast<int>(hist_len_) > order_) {
      ++order_;
    }
    ++stats_.steps;
    obs::record_step(obs::StepEventKind::kStepAccepted, "bdf",
                     static_cast<std::uint16_t>(k), t_, h, err);
    jac_engine_.on_step_accepted(last_newton_iters_);
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
        // Keep the even points: point 2i moves to slot i. Slot 2i lies
        // past every slot an earlier swap touched, so it still holds
        // point 2i.
        const std::size_t kept = (hist_len_ + 1) / 2;
        for (std::size_t i = 1; i < kept; ++i) {
          history_[i].swap(history_[2 * i]);
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
    return true;
  }

  ++stats_.rejected;
  obs::record_step(obs::StepEventKind::kStepRejected, "bdf",
                   static_cast<std::uint16_t>(k), t_, h, err);
  h_ *= std::clamp(0.9 * std::pow(err, -1.0 / (k + 1)), 0.1, 0.5);
  hist_len_ = 1;
  order_ = 1;
  jac_engine_.invalidate();
  if (h_ < 1e-14 * std::max(1.0, std::fabs(t_))) {
    throw omx::Error("bdf: step size underflow at t = " + std::to_string(t_));
  }
  return false;
}

}  // namespace omx::ode
