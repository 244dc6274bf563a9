// ODE problem and solution types shared by all solvers (§2.4).
//
// An initial value problem y'(t) = f(y(t), t), y(t0) = y0. The RHS
// callback is exactly the generated-and-parallelized function the paper
// targets; the optional Jacobian callback corresponds to the "extra
// function dedicated to computing the Jacobian" of §2.4/§3.2.1. There is
// one Jacobian form: a SparseJacFn filling the CSR values of the
// problem's sparsity pattern. A hand-written dense Jacobian sets
// `sparsity` to SparsityPattern::dense(n) and writes entry (i, j) at
// values()[i * n + j].
//
// The callbacks are non-owning support::FunctionRef views: one indirect
// call on the hot path, no type-erasure allocation. Long-lived kernels
// (exec::RhsKernel from pipeline::CompiledModel::make_kernel) bind
// directly; ad-hoc capturing lambdas go through the set_* binders, which
// copy the callable into a keep-alive owned by the Problem.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "omx/support/diagnostics.hpp"
#include "omx/support/function_ref.hpp"

namespace omx::la {
class CsrMatrix;
struct SparsityPattern;
}  // namespace omx::la

namespace omx::ode {

struct JacPlan;    // ode/jacobian.hpp: pattern + coloring
struct EventSpec;  // ode/events.hpp: zero-crossing guards + resets

using RhsFn = support::FunctionRef<void(double t, std::span<const double> y,
                                        std::span<double> ydot)>;
/// Batched RHS over `nb` scenarios in structure-of-arrays layout: state i
/// of scenario j at y_soa[i*nb+j], output slot likewise, per-scenario
/// time t[j]. `lane` selects a private workspace (a solve_ensemble
/// worker passes its index, ode::solve 0); calls on distinct lanes must
/// be thread-safe.
/// Lane results must be bitwise identical to a scalar rhs call on the
/// same (t[j], y[:, j]) — see exec::RhsKernel::eval_batch.
using BatchRhsFn = support::FunctionRef<void(
    std::size_t lane, std::size_t nb, const double* t, const double* y_soa,
    double* ydot_soa)>;
/// Writes J(i,j) = d f_i / d y_j for every entry of `jac`'s pattern
/// into its CSR values (Problem::sparsity with the diagonal added).
using SparseJacFn = support::FunctionRef<void(
    double t, std::span<const double> y, la::CsrMatrix& jac)>;

/// Thrown when a solve is aborted through a cancellation flag
/// (SolverOptions::cancel). A distinct type so supervising layers — the
/// ensemble driver, the service daemon — can tell a requested abort from
/// a numerical failure.
class Cancelled : public omx::Error {
 public:
  explicit Cancelled(std::string message) : Error(std::move(message)) {}
};

/// Driver-side poll of a cancellation flag: one relaxed load per step
/// attempt when armed, nothing when `cancel` is null.
inline void poll_cancel(const std::atomic<bool>* cancel,
                        const char* method) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    throw Cancelled(std::string(method) + ": cancelled");
  }
}

struct Problem {
  std::size_t n = 0;
  RhsFn rhs;  // non-owning; see set_rhs for owning binding
  double t0 = 0.0;
  double tend = 1.0;
  std::vector<double> y0;
  /// State-vector arity declared by the bound kernel (0 = unknown).
  /// pipeline::CompiledModel::make_problem fills it from the kernel;
  /// validate() rejects a mismatch against n.
  std::size_t rhs_arity = 0;

  /// Optional batched RHS. When bound, every solver evaluation goes
  /// through it (ode::LaneRhs): solve() on kernel lane 0 at width 1,
  /// each solve_ensemble worker on its own lane over its lane block.
  /// When absent the solvers call `rhs` lane by lane (then `rhs` must be
  /// thread-safe if workers > 1).
  BatchRhsFn batch_rhs;
  /// Arity declared by the bound batched kernel (0 = unknown); validate()
  /// rejects a mismatch against n, catching a batched kernel bound to a
  /// problem of a different model.
  std::size_t batch_arity = 0;
  /// Concurrency lanes the batched callable supports (0 = unlimited);
  /// solve_ensemble clamps its worker count to this.
  std::size_t batch_lanes = 0;

  /// Structural Jacobian sparsity: entry (i, j) present iff df_i/dy_j
  /// can be nonzero. pipeline::CompiledModel::make_problem attaches it
  /// from the dependency analysis; hand-built problems may set it
  /// directly (or via analysis::probe_sparsity). When absent the stiff
  /// solvers work on the full n x n pattern.
  std::shared_ptr<const la::SparsityPattern> sparsity;
  /// Optional Jacobian (CSR values only, in the order of `sparsity` with
  /// the diagonal added); needs `sparsity`, which validate() checks.
  /// Without it the stiff solvers take colored finite differences.
  SparseJacFn sparse_jacobian;
  /// Prepared Jacobian plan (pattern + coloring). Built from `sparsity`
  /// (or the full pattern) when absent: once per solve_ensemble
  /// call, or once per stiff solve, and shared across lanes and
  /// kLsodaLike segments via Problem copies.
  std::shared_ptr<const JacPlan> jac_plan;

  /// Optional hybrid-model events: zero-crossing guards with direction
  /// filters and reset actions (see ode/events.hpp). Every driver —
  /// including solve_ensemble lanes and kLsodaLike segments — detects
  /// sign changes per accepted step, localizes the crossing with dense
  /// output, applies the reset, and restarts cleanly. Null = smooth
  /// problem, zero overhead.
  std::shared_ptr<const EventSpec> events;

  /// Copies `f` into a keep-alive owned by this Problem and points `rhs`
  /// at it. Use for capturing lambdas and other short-lived callables;
  /// one allocation at setup time, none per evaluation.
  template <typename F>
  void set_rhs(F f) {
    auto owned = std::make_shared<F>(std::move(f));
    rhs = RhsFn(*owned);
    rhs_keepalive_ = std::move(owned);
  }

  template <typename F>
  void set_batch_rhs(F f) {
    auto owned = std::make_shared<F>(std::move(f));
    batch_rhs = BatchRhsFn(*owned);
    batch_keepalive_ = std::move(owned);
  }

  template <typename F>
  void set_sparse_jacobian(F f) {
    auto owned = std::make_shared<F>(std::move(f));
    sparse_jacobian = SparseJacFn(*owned);
    sparse_jac_keepalive_ = std::move(owned);
  }

  void validate() const;

 private:
  // Shared so that copies of the Problem keep the bound callables alive.
  std::shared_ptr<void> rhs_keepalive_;
  std::shared_ptr<void> batch_keepalive_;
  std::shared_ptr<void> sparse_jac_keepalive_;
};

struct Tolerances {
  double rtol = 1e-6;
  double atol = 1e-9;
};

struct SolverStats {
  std::uint64_t rhs_calls = 0;
  std::uint64_t jac_calls = 0;
  std::uint64_t steps = 0;
  std::uint64_t rejected = 0;
  std::uint64_t newton_iters = 0;
  std::uint64_t method_switches = 0;
  /// Iteration-matrix factorizations.
  std::uint64_t jac_factorizations = 0;
  /// Factorizations that reused previously evaluated Jacobian values
  /// (beta*h changed but the Jacobian was still fresh — LSODA-style).
  std::uint64_t jac_reuse_hits = 0;
  /// Zero-crossing events fired (localized + reset applied).
  std::uint64_t events = 0;
  /// Events that terminated the integration before tend.
  std::uint64_t events_terminal = 0;
};

/// Adds one completed solve's statistics to the process-wide telemetry
/// registry (ode.solves, ode.steps, ode.steps_rejected, ode.rhs_calls,
/// ode.jac_evals, ode.newton_iters, ode.method_switches). Every solver
/// driver calls this once before returning its Solution.
void publish_solver_stats(const SolverStats& stats);

/// Accepted-step trajectory.
class Solution {
 public:
  void reserve(std::size_t steps, std::size_t n);
  void append(double t, std::span<const double> y);

  std::size_t size() const { return times_.size(); }
  double time(std::size_t i) const { return times_[i]; }
  std::span<const double> state(std::size_t i) const;
  std::span<const double> final_state() const;
  double final_time() const { return times_.back(); }

  /// Linear interpolation at time t (t within the covered range).
  std::vector<double> at(double t) const;

  SolverStats stats;

 private:
  std::size_t n_ = 0;
  std::vector<double> times_;
  std::vector<double> data_;  // row-major, one row per accepted step
};

/// Error weight vector w_i = atol + rtol*|y_i| used by all controllers.
void error_weights(std::span<const double> y, const Tolerances& tol,
                   std::span<double> w);

}  // namespace omx::ode
