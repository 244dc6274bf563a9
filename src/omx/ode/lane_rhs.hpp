// LaneRhs: the one way the solvers evaluate a problem's RHS, and the two
// start-up helpers the steppers share (RK4 substeps, the d0/d1 step).
//
// A stepper binds a LaneRhs once to its Problem and to the kernel lane of
// the worker it runs on (ode::solve runs lane 0). Every evaluation then
// follows one rule: a bound Problem::batch_rhs is called on that lane
// over the caller's SoA block, whatever its width; without one,
// Problem::rhs is called column by column. A width-1 SoA block is the
// plain state vector, so a one-lane call is a direct call on either path.
// Batched kernels are lane-independent (problem.hpp), so a lane's bits
// do not depend on which path or which block width evaluated it.
#pragma once

#include <span>
#include <vector>

#include "omx/ode/problem.hpp"

namespace omx::ode {

class LaneRhs {
 public:
  LaneRhs(const Problem& p, std::size_t lane) : p_(&p), lane_(lane) {}

  /// f[:, j] = f(t[j], y[:, j]) for every lane j of an n x nb SoA block.
  void operator()(std::size_t nb, const double* t, const double* y,
                  double* f) {
    if (p_->batch_rhs) {
      p_->batch_rhs(lane_, nb, t, y, f);
    } else {
      by_columns(nb, t, y, f);
    }
  }

  /// f = f(t, y) for one lane's contiguous vectors.
  void operator()(double t, std::span<const double> y, std::span<double> f) {
    (*this)(1, &t, y.data(), f.data());
  }

 private:
  void by_columns(std::size_t nb, const double* t, const double* y,
                  double* f);

  const Problem* p_;
  std::size_t lane_;
  std::vector<double> ya_, fa_;  // one gathered column, grown on first use
};

/// Advances y from t over h in `sub` classical RK4 substeps of h / sub
/// each, t moving by h / sub per substep, and returns the final t: the
/// Adams history rebuild and final interval, and the fixed-step BDF
/// mode's start-up and final interval. `k` holds the four stages and the
/// stage input (5 n doubles), grown on first use. Counts 4 RHS calls per
/// substep.
double rk4_substeps(LaneRhs& f, double t, double h, int sub,
                    std::span<double> y, std::vector<double>& k,
                    SolverStats& stats);

/// Hairer's d0/d1 heuristic for an automatic step: h ~ 1% of the
/// solution's time scale ||y||_w / ||f||_w, or 1e-3 * `span` when either
/// norm is tiny, capped at `hmax`. `f` is f(t, y); the error weights are
/// written into `w`. Every adaptive method's initial step and the dopri5
/// restart after an event.
double initial_step(std::span<const double> y, std::span<const double> f,
                    const Tolerances& tol, double span, double hmax,
                    std::span<double> w);

}  // namespace omx::ode
