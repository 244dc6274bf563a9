#include "omx/ode/problem.hpp"

#include <cmath>
#include <string>

#include "omx/obs/registry.hpp"

namespace omx::ode {

void publish_solver_stats(const SolverStats& stats) {
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& solves = reg.counter("ode.solves");
  static obs::Counter& steps = reg.counter("ode.steps");
  static obs::Counter& rejected = reg.counter("ode.steps_rejected");
  static obs::Counter& rhs_calls = reg.counter("ode.rhs_calls");
  static obs::Counter& jac_evals = reg.counter("ode.jac_evals");
  static obs::Counter& newton_iters = reg.counter("ode.newton_iters");
  static obs::Counter& switches = reg.counter("ode.method_switches");
  static obs::Counter& events_fired = reg.counter("ode.events_fired");
  static obs::Counter& events_terminal = reg.counter("ode.events_terminal");
  static obs::Counter& jac_factorizations = reg.counter("jac.factorizations");
  static obs::Counter& jac_reuse_hits = reg.counter("jac.reuse_hits");
  solves.add();
  steps.add(stats.steps);
  rejected.add(stats.rejected);
  rhs_calls.add(stats.rhs_calls);
  jac_evals.add(stats.jac_calls);
  newton_iters.add(stats.newton_iters);
  switches.add(stats.method_switches);
  events_fired.add(stats.events);
  events_terminal.add(stats.events_terminal);
  jac_factorizations.add(stats.jac_factorizations);
  jac_reuse_hits.add(stats.jac_reuse_hits);
}

void Problem::validate() const {
  if (n == 0 || !rhs) {
    throw omx::Error("ODE problem needs n > 0 and an RHS function");
  }
  if (y0.size() != n) {
    throw omx::Error("ODE problem: y0 size does not match n");
  }
  // tend == t0 is a valid zero-step solve: the initial row streams to
  // the sink and finish() fires with zero steps taken.
  if (!(tend >= t0)) {
    throw omx::Error("ODE problem: tend must not precede t0");
  }
  if (rhs_arity != 0 && rhs_arity != n) {
    throw omx::Error("ODE problem: bound kernel arity (" +
                     std::to_string(rhs_arity) +
                     ") does not match n = " + std::to_string(n));
  }
  if (batch_arity != 0 && batch_arity != n) {
    throw omx::Error("ODE problem: bound batched kernel arity (" +
                     std::to_string(batch_arity) +
                     ") does not match n = " + std::to_string(n));
  }
  if (sparse_jacobian && !sparsity) {
    throw omx::Error(
        "ODE problem: a sparse_jacobian needs its pattern in `sparsity` "
        "(SparsityPattern::dense(n) for a dense one)");
  }
}

void Solution::reserve(std::size_t steps, std::size_t n) {
  n_ = n;
  times_.reserve(steps);
  data_.reserve(steps * n);
}

void Solution::append(double t, std::span<const double> y) {
  if (n_ == 0) {
    n_ = y.size();
  }
  OMX_REQUIRE(y.size() == n_, "state size mismatch");
  times_.push_back(t);
  data_.insert(data_.end(), y.begin(), y.end());
}

std::span<const double> Solution::state(std::size_t i) const {
  OMX_REQUIRE(i < times_.size(), "step index out of range");
  return {&data_[i * n_], n_};
}

std::span<const double> Solution::final_state() const {
  OMX_REQUIRE(!times_.empty(), "empty solution");
  return state(times_.size() - 1);
}

std::vector<double> Solution::at(double t) const {
  OMX_REQUIRE(!times_.empty(), "empty solution");
  if (t <= times_.front()) {
    auto s = state(0);
    return {s.begin(), s.end()};
  }
  if (t >= times_.back()) {
    auto s = final_state();
    return {s.begin(), s.end()};
  }
  // Binary search for the bracketing interval.
  std::size_t lo = 0;
  std::size_t hi = times_.size() - 1;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (times_[mid] <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double w =
      (t - times_[lo]) / (times_[hi] - times_[lo]);
  auto a = state(lo);
  auto b = state(hi);
  std::vector<double> out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out[i] = (1.0 - w) * a[i] + w * b[i];
  }
  return out;
}

void error_weights(std::span<const double> y, const Tolerances& tol,
                   std::span<double> w) {
  for (std::size_t i = 0; i < y.size(); ++i) {
    w[i] = tol.atol + tol.rtol * std::fabs(y[i]);
  }
}

}  // namespace omx::ode
