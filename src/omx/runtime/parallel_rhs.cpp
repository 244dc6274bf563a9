#include "omx/runtime/parallel_rhs.hpp"

#include <algorithm>

#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/support/timer.hpp"

namespace omx::runtime {

ParallelRhs::ParallelRhs(const exec::RhsKernel& kernel,
                         const ParallelRhsOptions& opts)
    : opts_(opts) {
  pool_ = std::make_unique<WorkerPool>(kernel, opts_.pool);
  init_scheduler();
}

void ParallelRhs::init_scheduler() {
  const exec::TaskTable& table = pool_->kernel().tasks();
  std::vector<double> static_weights;
  static_weights.reserve(table.size());
  for (const exec::TaskMeta& t : table.tasks) {
    static_weights.push_back(t.est_cost);
  }
  sched_ = std::make_unique<sched::SemiDynamicLpt>(
      std::move(static_weights), opts_.pool.num_workers, opts_.sched);
  pool_->set_schedule(sched_->schedule());
}

void ParallelRhs::eval(double t, std::span<const double> y,
                       std::span<double> ydot) {
  // Buckets span 10 us .. 1 s: the paper's headline granularity is
  // ~10 ms/call, and microbenchmark-sized systems land near the bottom.
  static obs::Histogram& eval_hist = obs::Registry::global().histogram(
      "rhs.eval_seconds", obs::log_spaced_bounds(1e-5, 1.0));
  Stopwatch total;
  pool_->eval(t, y, ydot);
  {
    Stopwatch sched_time;
    obs::Span span("sched.record", "sched");
    const bool rebuilt = sched_->record(pool_->last_task_seconds());
    if (rebuilt) {
      pool_->set_schedule(sched_->schedule());
    }
    scheduling_seconds_ += sched_time.seconds();
  }
  ++rhs_calls_;
  const double secs = total.seconds();
  eval_seconds_ += secs;
  eval_hist.observe(secs);
}

void ParallelRhs::reset_counters() {
  rhs_calls_ = 0;
  eval_seconds_ = 0.0;
  scheduling_seconds_ = 0.0;
  pool_->stats().reset();
}

SerialRhs::SerialRhs(const exec::RhsKernel& kernel,
                     std::size_t compute_scale)
    : kernel_(&kernel), compute_scale_(compute_scale) {
  OMX_REQUIRE(compute_scale_ >= 1, "compute_scale must be >= 1");
}

void SerialRhs::eval(double t, std::span<const double> y,
                     std::span<double> ydot) {
  static obs::Counter& rhs_calls_metric =
      obs::Registry::global().counter("rhs.calls");
  rhs_calls_metric.add();
  obs::Span span("rhs.eval_serial", "runtime");
  Stopwatch total;
  OMX_REQUIRE(ydot.size() == kernel_->n_out(), "ydot size mismatch");
  for (std::size_t rep = 0; rep < compute_scale_; ++rep) {
    // Whole-system evaluation writes every slot, so repetitions (the
    // compute-scale emulation) are idempotent.
    (*kernel_)(t, y, ydot);
  }
  ++rhs_calls_;
  eval_seconds_ += total.seconds();
}

void SerialRhs::reset_counters() {
  rhs_calls_ = 0;
  eval_seconds_ = 0.0;
}

}  // namespace omx::runtime
