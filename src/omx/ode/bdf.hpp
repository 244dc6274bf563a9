// Backward differentiation formulas (orders 1-5) with modified Newton —
// the stiff method family of LSODA/ODEPACK (§3.2.1; Hindmarsh 1983).
//
// The implementation uses uniform-step BDF with automatic order ramp-up:
// after every (re)start or step-size change the history is reset and the
// order climbs 1 -> target as uniform points accumulate; this is the
// classical fixed-leading-coefficient strategy in its simplest robust
// form. The iteration matrix I - h*beta*J lives in a JacobianEngine:
// factorizations are reused across Newton iterations and steps, a
// beta*h change alone refactors with the existing Jacobian values, and
// only divergence, slow convergence, or age re-evaluates the Jacobian
// (LSODA-style; see ode/jacobian.hpp). The step loop around it is the
// multistep lane stepper in ode/ensemble.cpp.
#pragma once

#include <memory>

#include "omx/la/lu.hpp"
#include "omx/ode/events.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/solve.hpp"

namespace omx::ode {

/// Single-step driver; reads tol, bdf_max_order, h0, hmax,
/// newton_max_iters, bdf_fixed_h and jac_threads from the options.
class BdfStepper {
 public:
  BdfStepper(const Problem& p, const SolverOptions& opts);

  void restart(double t, std::span<const double> y, double h);

  /// Attempts one step; true = accepted.
  bool step();

  double t() const { return t_; }
  std::span<const double> y() const { return history_.front(); }
  double h() const { return h_; }
  int current_order() const { return order_; }
  /// Newton iterations used by the last accepted step (fast convergence
  /// signals the problem is no longer stiff — switch-back heuristic).
  std::size_t last_newton_iters() const { return last_newton_iters_; }

  /// Dense output over the step just accepted: Lagrange evaluation of
  /// the uniform history (the BDF interpolating polynomial the corrector
  /// itself is built on). Valid immediately after step() returns true —
  /// event localization is its consumer.
  DenseOutput last_step_dense() const {
    return DenseOutput::lagrange(t_, last_node_h_, history_,
                                 last_dense_points_);
  }

  SolverStats& stats() { return stats_; }

 private:
  /// Iterates in `y1`, starting from `predictor`.
  bool newton_solve(double t1, std::span<const double> predictor,
                    std::span<const double> rhs_const, double beta_h,
                    std::span<double> y1);
  /// Makes `y` the newest history point, dropping the oldest when full.
  void push_history(std::span<const double> y);

  const Problem& p_;
  SolverOptions opts_;
  JacobianEngine jac_engine_;

  double t_ = 0.0;
  double h_ = 0.0;
  int order_ = 1;  // current ramped order
  // history_[0] = y_n, history_[1] = y_{n-1}, ... up to hist_len_: a
  // fixed set of n-vectors that accepted steps rotate, not reallocate.
  static constexpr std::size_t kHistory = 6;
  std::vector<std::vector<double>> history_;
  std::size_t hist_len_ = 0;
  // Scratch of step() and newton_solve(), sized once so that the
  // adaptive step loop allocates nothing.
  std::vector<double> rhs_const_, predictor_, ynew_, w_, f_, g_, dy_;
  // Node spacing / count for last_step_dense(), refreshed per accepted
  // step (growth subsampling changes the spacing after the insert).
  double last_node_h_ = 0.0;
  std::size_t last_dense_points_ = 2;
  std::size_t last_newton_iters_ = 0;
  SolverStats stats_;
};

}  // namespace omx::ode
