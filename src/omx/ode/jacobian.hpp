// Jacobian evaluation for the implicit solvers.
//
// Every Jacobian lives on a pattern: the problem's structural one
// (Problem::sparsity, with the diagonal added) or, without one, the full
// n x n pattern. Two ways to fill it:
//  * Colored compressed FD: a greedy distance-2 column coloring packs
//    all columns of one color into a single perturbed RHS evaluation —
//    colors+1 calls instead of n+1 (3+1 for a tridiagonal heat-PDE
//    stencil). Because each equation reads at most one perturbed column
//    per color group, the compressed differences are bitwise identical
//    to one-column-at-a-time differences. Over the full pattern every
//    column is its own color: the n+1-call forward differences LSODA
//    does internally, which the paper calls "usually very expensive"
//    (§3.2.1).
//  * Analytic: the problem's SparseJacFn (the tape-compiled symbolic
//    derivative, or a hand-written one over SparsityPattern::dense(n))
//    writes the pattern's values directly.
//
// JacobianEngine owns the Jacobian values, the iteration matrix
// M = I - beta*h*J, its la::SparseLu factorization, and the LSODA-style
// reuse policy: a beta*h change alone refactors with the existing
// Jacobian values (a "reuse hit"); only divergence, slow convergence, or
// age forces a re-evaluation.
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "omx/la/sparse.hpp"
#include "omx/ode/lane_rhs.hpp"
#include "omx/support/simd.hpp"

namespace omx::ode {

/// LSODA-style scaled FD increment: dj = sqrt(eps) * max(|y_j|, typ_j),
/// carrying the sign of y_j (perturbing away from the origin keeps the
/// relative scale of y_j + dj when y_j is large and negative).
inline double fd_increment(double yj, double typ = 1.0) {
  const double sqrt_eps = std::sqrt(2.220446049250313e-16);
  const double mag = sqrt_eps * std::max(std::fabs(yj), typ);
  return yj < 0.0 ? -mag : mag;
}

/// Prepared Jacobian plan, shared across Problem copies (ensemble lanes,
/// kLsodaLike segments). Immutable once built.
struct JacPlan {
  /// The pattern augmented with the diagonal (the iteration matrix
  /// I - beta*h*J needs it).
  std::shared_ptr<const la::SparsityPattern> pattern;
  la::Coloring coloring;
  la::ColumnView cols;  // CSC companion for column-wise FD scatter
};

/// Builds the plan from p.sparsity, or from the full n x n pattern when
/// the problem has none. A full pattern colors column j with color j (the
/// greedy coloring's result, without its O(n^3) walk); any other goes
/// through la::color_columns. Also publishes the jac.colors / jac.nnz
/// gauges.
std::shared_ptr<const JacPlan> make_jac_plan(const Problem& p);

/// colored_fd_jacobian's buffers, grown on first use and reused after.
struct FdScratch {
  std::vector<double> f0;
  simd::aligned_vector<double> ts, y_soa, f_soa;
};

/// Colored compressed finite-difference Jacobian into CSR values:
/// colors+1 RHS evaluations through `f`, the base point and then one call
/// with one lane per color group. Allocates nothing once `scratch` (and
/// `f`) have grown to the problem.
void colored_fd_jacobian(LaneRhs& f, const JacPlan& plan, double t,
                         std::span<const double> y, la::CsrMatrix& jac,
                         std::uint64_t& rhs_calls, FdScratch& scratch);

/// Owns Jacobian values + iteration-matrix factorization for a modified
/// Newton iteration, with the LSODA-style reuse/refresh policy.
class JacobianEngine {
 public:
  /// Evaluates `p`'s Jacobian; a colored finite difference calls `f`,
  /// which must outlive the engine.
  JacobianEngine(const Problem& p, LaneRhs& f);

  /// True when the next prepare() evaluates the Jacobian (never
  /// evaluated, aged out, degradation or divergence flagged).
  bool stale() const;

  /// Ensures a factorization of M = I - beta_h * J consistent with the
  /// reuse policy and returns it (at the same address every time).
  /// Evaluates the Jacobian only when stale (never evaluated, aged out,
  /// degradation or divergence flagged); a beta_h change alone refactors
  /// with the existing values and counts a reuse hit.
  /// `y` is read only when stale().
  la::SparseLu& prepare(double t, std::span<const double> y, double beta_h,
                        SolverStats& stats);

  /// Flags Newton divergence: the next prepare() re-evaluates the
  /// Jacobian at whatever iterate it is given.
  void force_refresh() { refresh_requested_ = true; }

  /// Marks Jacobian and factorization stale (step rejection, restart):
  /// the next prepare() re-evaluates and refactors. The factorization
  /// keeps its storage, so the refactor reuses the LU structure.
  void invalidate();

  /// Accepted-step bookkeeping: ages the Jacobian and applies the
  /// slow-convergence degradation trigger.
  void on_step_accepted(std::size_t newton_iters);

 private:
  void eval_jacobian(double t, std::span<const double> y,
                     SolverStats& stats);
  void factorize(double beta_h);

  const Problem& p_;
  LaneRhs& f_;
  std::shared_ptr<const JacPlan> plan_;
  la::CsrMatrix jac_;   // Jacobian values on the plan's pattern
  la::CsrMatrix m_;     // iteration matrix on the same pattern
  FdScratch fd_;        // the colored FD's buffers
  std::optional<la::SparseLu> lu_;
  bool have_jac_ = false;
  bool refresh_requested_ = false;
  std::size_t age_ = 0;
  double factored_beta_h_ = -1.0;  // beta*h > 0 of the factorization
};

}  // namespace omx::ode
