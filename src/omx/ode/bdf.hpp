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
/// newton_max_iters and bdf_fixed_h from the options.
///
/// A step attempt runs in phases, so that an ensemble can take many
/// lanes' Newton iterations in lockstep (ode/ensemble.cpp): begin_step();
/// then, for as long as newton_update() asks for another, one iteration:
/// the RHS at (newton_t(), newton_y()), newton_residual(), a solve with
/// newton_solver() and newton_update(); then finish_step(). step() is
/// those phases in sequence with the RHS through p.rhs.
class BdfStepper {
 public:
  BdfStepper(const Problem& p, const SolverOptions& opts);

  void restart(double t, std::span<const double> y, double h);

  /// Attempts one step; true = accepted.
  bool step();

  /// Starts an attempt: step size, order, predictor, error weights and
  /// the iteration matrix. False when the attempt takes no Newton
  /// iteration (the fixed-step mode's final interval, which it finishes
  /// here, or newton_max_iters = 0).
  bool begin_step();
  /// The time and the iterate the next iteration evaluates the RHS at.
  double newton_t() const { return t_ + attempt_.h; }
  std::span<const double> newton_y() const { return ynew_; }
  /// g = y - beta*h*f - rhs_const at the iterate, from f = rhs(newton_t(),
  /// newton_y()); f and g are strided by `stride`.
  void newton_residual(const double* f, double* g, std::size_t stride);
  /// The factorization this iteration solves with.
  const la::LinearSolver& newton_solver() const { return *solver_; }
  /// Applies the correction dy (strided by `stride`) that solves M dy = g;
  /// true when another iteration follows.
  bool newton_update(const double* dy, std::size_t stride);
  /// Ends the attempt: error estimate, then accept or reject; true =
  /// accepted.
  bool finish_step();

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
  // Scratch of the step phases and of restart(), sized once so that the
  // adaptive step loop allocates nothing.
  std::vector<double> rhs_const_, predictor_, ynew_, w_, f_, g_, dy_;
  // The attempt in flight, set by begin_step().
  struct Attempt {
    double h = 0.0;         // its step size
    double rem = 0.0;       // tend - t at its start
    double beta_h = 0.0;    // beta * h of its order
    int k = 1;              // its order
    bool clipped = false;   // the final step, shortened to reach tend
    bool finished = false;  // begin_step() already took it
  } attempt_;
  // Newton state of the attempt in flight.
  const la::LinearSolver* solver_ = nullptr;
  std::size_t iter_ = 0;
  double prev_norm_ = 0.0;
  bool refreshed_ = false;  // the Jacobian was refreshed on divergence
  bool converged_ = false;
  // Node spacing / count for last_step_dense(), refreshed per accepted
  // step (growth subsampling changes the spacing after the insert).
  double last_node_h_ = 0.0;
  std::size_t last_dense_points_ = 2;
  std::size_t last_newton_iters_ = 0;
  SolverStats stats_;
};

}  // namespace omx::ode
