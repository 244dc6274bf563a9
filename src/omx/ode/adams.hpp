// Adams-Bashforth-Moulton predictor-corrector (PECE), order 4, with
// adaptive step size — kAdamsPece, and the non-stiff half of kLsodaLike
// (§3.2.1; Petzold 1983). The step loop around it is the multistep lane
// stepper in ode/ensemble.cpp.
//
// Startup and every step-size change rebuild the derivative history with
// RK4 substeps. The local error estimate is the standard Milne device:
// the predictor/corrector difference scaled by the method constant.
#pragma once

#include "omx/ode/lane_rhs.hpp"
#include "omx/ode/solve.hpp"

namespace omx::ode {

/// Single-step driver; reads tol, h0 and hmax from the options. Every
/// RHS evaluation goes through one LaneRhs on kernel lane `lane`.
class AdamsStepper {
 public:
  AdamsStepper(const Problem& p, const SolverOptions& opts,
               std::size_t lane = 0);

  /// Initializes (or re-initializes) at (t, y) with step h (0 = auto).
  void restart(double t, std::span<const double> y, double h);

  /// Attempts one step. Returns true when a step was accepted (state
  /// advanced), false when it was rejected (h reduced; call again).
  bool step();

  double t() const { return t_; }
  std::span<const double> y() const { return y_; }
  double h() const { return h_; }
  /// Consecutive rejected attempts since the last acceptance — one
  /// stiffness tell-tale used by the switching heuristic.
  std::size_t consecutive_rejects() const { return consecutive_rejects_; }

  /// Number of "growth bounces": the controller judged the error small
  /// enough to double h, but a step shortly after was rejected with an
  /// exploding estimate — circumstantial stiffness evidence.
  std::size_t growth_bounces() const { return growth_bounces_; }

  /// Directly measures sigma = h * lambda_est, where lambda_est is the
  /// Jacobian's action on the current flow direction (one extra RHS
  /// call). An explicit method that is *accuracy*-limited runs at
  /// sigma << 1; one pinned at its *stability* boundary runs at sigma of
  /// order 1 — the LSODA-style stiffness criterion.
  double stiffness_ratio();

  SolverStats& stats() { return stats_; }
  /// The stepper's RHS, for evaluations beside the steps (dense output).
  LaneRhs& rhs() { return rhs_; }

 private:
  void rebuild_history();

  const Problem& p_;
  SolverOptions opts_;
  LaneRhs rhs_;
  double t_ = 0.0;
  double h_ = 0.0;
  std::vector<double> y_;
  // f history: f_[0] = f(t_n), f_[1] = f(t_{n-1}), ...
  std::vector<std::vector<double>> f_;
  // A step's predictor, corrector, RHS value, error and error weights,
  // and the RK4 stages.
  std::vector<double> yp_, yc_, fc_, err_, w_, rk4_;
  std::size_t consecutive_rejects_ = 0;
  std::size_t steps_since_rebuild_ = 0;
  std::size_t growth_bounces_ = 0;
  bool just_grew_ = false;
  SolverStats stats_;
};

}  // namespace omx::ode
