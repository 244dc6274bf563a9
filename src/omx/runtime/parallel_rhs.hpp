// ParallelRhs: the complete parallelized RHS function handed to the ODE
// solver — supervisor/worker execution plus semi-dynamic LPT scheduling,
// with the bookkeeping the paper reports (RHS calls/s, scheduling
// overhead, message statistics).
//
// Both classes are callables with the ode::RhsFn signature, so a
// long-lived instance binds directly into an ode::Problem:
//   runtime::ParallelRhs rhs(kernel, opts);
//   prob.rhs = ode::RhsFn(rhs);
#pragma once

#include <memory>

#include "omx/runtime/worker_pool.hpp"
#include "omx/sched/semidynamic.hpp"

namespace omx::runtime {

struct ParallelRhsOptions {
  WorkerPool::Options pool;
  /// Rescheduling cadence of the semi-dynamic LPT schedule, which every
  /// call's measured task times feed.
  sched::SemiDynamicOptions sched;
};

class ParallelRhs {
 public:
  /// `kernel` must have a task decomposition (see WorkerPool) and
  /// outlive this object.
  ParallelRhs(const exec::RhsKernel& kernel,
              const ParallelRhsOptions& opts);

  std::size_t n() const { return pool_->kernel().n_state(); }

  /// Evaluates ydot = f(t, y); usable as an ode::RhsFn.
  void eval(double t, std::span<const double> y, std::span<double> ydot);
  void operator()(double t, std::span<const double> y,
                  std::span<double> ydot) {
    eval(t, y, ydot);
  }

  // -- bookkeeping -----------------------------------------------------------
  std::uint64_t rhs_calls() const { return rhs_calls_; }
  /// Total wall seconds spent inside eval().
  double eval_seconds() const { return eval_seconds_; }
  /// Wall seconds spent measuring + rebuilding schedules (the <1% claim).
  double scheduling_seconds() const { return scheduling_seconds_; }
  std::size_t num_reschedules() const { return sched_->num_reschedules(); }
  MessageStats& stats() { return pool_->stats(); }

  /// Measured RHS throughput: calls per second so far.
  double calls_per_second() const {
    return eval_seconds_ > 0.0 ? static_cast<double>(rhs_calls_) /
                                     eval_seconds_
                               : 0.0;
  }

  void reset_counters();

 private:
  void init_scheduler();

  ParallelRhsOptions opts_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<sched::SemiDynamicLpt> sched_;
  std::uint64_t rhs_calls_ = 0;
  double eval_seconds_ = 0.0;
  double scheduling_seconds_ = 0.0;
};

/// Serial counterpart with the same bookkeeping interface: the 1-processor
/// baseline of Figure 12 (solver and RHS on the same processor, no
/// messages).
class SerialRhs {
 public:
  /// `kernel` must outlive this object.
  explicit SerialRhs(const exec::RhsKernel& kernel,
                     std::size_t compute_scale = 1);

  std::size_t n() const { return kernel_->n_state(); }
  void eval(double t, std::span<const double> y, std::span<double> ydot);
  void operator()(double t, std::span<const double> y,
                  std::span<double> ydot) {
    eval(t, y, ydot);
  }

  std::uint64_t rhs_calls() const { return rhs_calls_; }
  double eval_seconds() const { return eval_seconds_; }
  double calls_per_second() const {
    return eval_seconds_ > 0.0 ? static_cast<double>(rhs_calls_) /
                                     eval_seconds_
                               : 0.0;
  }
  void reset_counters();

 private:
  const exec::RhsKernel* kernel_;
  std::size_t compute_scale_;
  std::uint64_t rhs_calls_ = 0;
  double eval_seconds_ = 0.0;
};

}  // namespace omx::runtime
