#include "omx/ode/adams.hpp"

#include <algorithm>
#include <cmath>

#include "omx/la/norms.hpp"
#include "omx/obs/trace.hpp"

namespace omx::ode {

namespace {
// AB4 predictor and AM4 (3-step) corrector coefficients.
constexpr double kAb[4] = {55.0 / 24, -59.0 / 24, 37.0 / 24, -9.0 / 24};
constexpr double kAm[4] = {9.0 / 24, 19.0 / 24, -5.0 / 24, 1.0 / 24};
// Milne error constant for the PECE pair: |y_c - y_p| * 19/270.
constexpr double kMilne = 19.0 / 270.0;
}  // namespace

AdamsStepper::AdamsStepper(const Problem& p, const SolverOptions& opts,
                           std::size_t lane)
    : p_(p),
      opts_(opts),
      rhs_(p, lane),
      y_(p.n),
      f_(4, std::vector<double>(p.n)),
      yp_(p.n),
      yc_(p.n),
      fc_(p.n),
      err_(p.n),
      w_(p.n) {
  restart(p.t0, p.y0, opts.h0);
}

void AdamsStepper::restart(double t, std::span<const double> y, double h) {
  t_ = t;
  std::copy(y.begin(), y.end(), y_.begin());
  const double hmax = opts_.hmax > 0.0 ? opts_.hmax : (p_.tend - p_.t0);
  if (h > 0.0) {
    h_ = std::min(h, hmax);
  } else {
    rhs_(t_, y_, fc_);
    ++stats_.rhs_calls;
    h_ = initial_step(y_, fc_, opts_.tol, p_.tend - p_.t0, hmax, w_);
  }
  // The history rebuild advances 3 substeps; keep them well inside the
  // remaining interval.
  const double remaining = p_.tend - t_;
  if (remaining < 8.0 * h_) {
    h_ = remaining / 8.0;
  }
  rebuild_history();
  consecutive_rejects_ = 0;
}

void AdamsStepper::rebuild_history() {
  // Take three RK4 substeps *backwards-filling* the f history forward:
  // history holds f at t_n, t_n - h, ..., but we cannot step backwards, so
  // we advance three RK4 steps and shift the window: the stepper's (t_, y_)
  // moves to the last substep.
  rhs_(t_, y_, f_[3]);
  ++stats_.rhs_calls;
  for (int k = 2; k >= 0; --k) {
    // Each history point is produced by 4 RK4 substeps: the local error
    // (h/4)^5-scale stays far below the ABM4 error controller's budget,
    // so rebuilds never pollute the controlled accuracy.
    t_ = rk4_substeps(rhs_, t_, h_, 4, y_, rk4_, stats_);
    rhs_(t_, y_, f_[static_cast<std::size_t>(k)]);
    ++stats_.rhs_calls;
    stats_.steps++;
  }
  steps_since_rebuild_ = 0;
}

bool AdamsStepper::step() {
  const std::size_t n = p_.n;
  const double rem = p_.tend - t_;
  if (rem < h_) {
    // Finish the last partial interval with a single RK4 step (same order;
    // keeps the Adams history spacing strictly uniform).
    rk4_substeps(rhs_, t_, rem, 1, y_, rk4_, stats_);
    t_ = p_.tend;
    ++stats_.steps;
    consecutive_rejects_ = 0;
    return true;
  }
  const double h = h_;

  // Predict (AB4).
  for (std::size_t i = 0; i < n; ++i) {
    yp_[i] = y_[i] + h * (kAb[0] * f_[0][i] + kAb[1] * f_[1][i] +
                          kAb[2] * f_[2][i] + kAb[3] * f_[3][i]);
  }
  // Evaluate, correct (AM4), evaluate (PECE).
  rhs_(t_ + h, yp_, fc_);
  for (std::size_t i = 0; i < n; ++i) {
    yc_[i] = y_[i] + h * (kAm[0] * fc_[i] + kAm[1] * f_[0][i] +
                          kAm[2] * f_[1][i] + kAm[3] * f_[2][i]);
  }
  stats_.rhs_calls += 1;

  for (std::size_t i = 0; i < n; ++i) {
    err_[i] = kMilne * (yc_[i] - yp_[i]);
  }
  error_weights(yc_, opts_.tol, w_);
  const double e = la::wrms_norm(err_, w_);
  if (!std::isfinite(e)) {
    // A NaN/Inf from the RHS fails every accept test; report the real
    // cause instead of rejecting down to a step-size underflow.
    throw omx::Error("adams_pece: non-finite state or RHS at t = " +
                     std::to_string(t_));
  }

  if (e <= 1.0) {
    obs::record_step(obs::StepEventKind::kStepAccepted, "adams", 4, t_, h,
                     e);
    t_ += h;
    std::copy(yc_.begin(), yc_.end(), y_.begin());
    // Shift history; final evaluation of PECE.
    std::rotate(f_.rbegin(), f_.rbegin() + 1, f_.rend());
    rhs_(t_, y_, f_[0]);
    ++stats_.rhs_calls;
    ++stats_.steps;
    consecutive_rejects_ = 0;
    // Step-size growth: any change of h invalidates the uniform history
    // and a rebuild costs ~50 RHS calls, so require a clear win AND let
    // the current step size amortize over several accepted steps first.
    ++steps_since_rebuild_;
    if (steps_since_rebuild_ >= 8) {
      just_grew_ = false;  // the grown step size has proven itself
    }
    const double fac = 0.9 * std::pow(std::max(e, 1e-10), -0.2);
    if (fac > 1.9 && steps_since_rebuild_ >= 8 &&
        p_.tend - t_ > 8.0 * h_) {
      const double grown = std::min(
          h_ * 2.0, opts_.hmax > 0.0 ? opts_.hmax : (p_.tend - p_.t0));
      if (grown > h_ * 1.01) {  // only rebuild when h actually changes
        h_ = grown;
        rebuild_history();
        just_grew_ = true;
      }
    }
    return true;
  }

  ++stats_.rejected;
  ++consecutive_rejects_;
  obs::record_step(obs::StepEventKind::kStepRejected, "adams", 4, t_, h,
                   e);
  if (just_grew_) {
    // Accuracy misses after growth show e slightly above 1; an explicit
    // method pushed past its stability boundary rejects with an exploding
    // estimate. Only the latter counts as stiffness evidence.
    if (e > 3.0) {
      ++growth_bounces_;
    }
    just_grew_ = false;
  }
  h_ *= std::max(0.25, 0.9 * std::pow(e, -0.25));
  if (h_ < 1e-14 * std::max(1.0, std::fabs(t_))) {
    throw omx::Error("adams: step size underflow at t = " +
                     std::to_string(t_));
  }
  // A shrunk h always leaves room for the 3-substep rebuild.
  rebuild_history();
  return false;
}

double AdamsStepper::stiffness_ratio() {
  const std::size_t n = p_.n;
  const double yn = la::norm2(y_);
  const double eps = 1e-7 * (yn + 1.0);
  std::vector<double> yp(n), f1(n);

  auto probe = [&](std::span<const double> dir) {
    const double dn = la::norm2(dir);
    if (dn == 0.0) {
      return 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      yp[i] = y_[i] + eps * dir[i] / dn;
    }
    rhs_(t_, yp, f1);
    ++stats_.rhs_calls;
    for (std::size_t i = 0; i < n; ++i) {
      f1[i] -= f_[0][i];
    }
    return la::norm2(f1) / eps;
  };

  // Two directional probes of ||J v||: along the flow (the smooth,
  // slowest modes — what the solution currently does) and along the
  // roughest sign-alternating direction (which excites the fast modes of
  // diffusion-like operators that the flow direction hides). The max is a
  // cheap lower bound on the spectral radius.
  const double lambda_flow = probe(f_[0]);
  std::vector<double> rough(n);
  for (std::size_t i = 0; i < n; ++i) {
    rough[i] = (i % 2 == 0) ? 1.0 : -1.0;
  }
  const double lambda_rough = probe(rough);
  return h_ * std::max(lambda_flow, lambda_rough);
}

}  // namespace omx::ode
