// Semi-dynamic LPT (§3.2.3): conditional expressions inside equation
// right-hand sides make static cost prediction impossible, so the measured
// per-task times of the previous iteration step predict the next step's
// costs, and the schedule is rebuilt at a fixed cadence. The paper reports
// this costs "less than 1% of the execution time" — bench/lpt_overhead
// measures the same number for this implementation.
//
// record() takes seconds indexed by *task*, not by worker, so a rebuilt
// schedule that moves a task to another worker keeps its measurement;
// runtime::ParallelRhs hands the rebuilt schedule to the worker pool
// before the next call.
#pragma once

#include "omx/sched/lpt.hpp"

namespace omx::sched {

struct SemiDynamicOptions {
  /// Rebuild the schedule every `reschedule_period` RHS evaluations.
  std::size_t reschedule_period = 16;
  /// Exponential smoothing factor for measured times (1.0 = last sample).
  double smoothing = 0.5;
};

class SemiDynamicLpt {
 public:
  /// `static_weights` are the compile-time cost predictions (instruction
  /// counts) used until measurements exist.
  SemiDynamicLpt(std::vector<double> static_weights, std::size_t num_workers,
                 const SemiDynamicOptions& opts = {});

  /// Current schedule.
  const Schedule& schedule() const { return schedule_; }

  /// Feeds the measured per-task seconds of one evaluation. Returns true
  /// if the schedule was rebuilt.
  bool record(std::span<const double> task_seconds);

  /// Changes worker count (reschedules immediately).
  void reset_workers(std::size_t num_workers);

  std::size_t num_reschedules() const { return num_reschedules_; }
  const std::vector<double>& predicted() const { return weights_; }

 private:
  void rebuild();

  std::vector<double> weights_;
  std::size_t num_workers_;
  SemiDynamicOptions opts_;
  Schedule schedule_;
  std::size_t calls_since_rebuild_ = 0;
  std::size_t num_reschedules_ = 0;
  bool have_measurements_ = false;
};

}  // namespace omx::sched
