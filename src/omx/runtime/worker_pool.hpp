// Supervisor/worker execution engine (§3.2, Figure 10).
//
// The supervisor (the caller of eval(), i.e. the ODE solver thread)
// distributes the state vector to worker threads, each worker executes
// tasks through the bound exec::RhsKernel (one concurrency lane per
// worker), and the supervisor collects and accumulates the results.
// Message costs are charged through the simulated Interconnect on both
// the sending and receiving side.
//
// Start/finish protocol (epoch-based, ThreadSanitizer-clean):
//  * The supervisor publishes the epoch inputs (t, y), then increments
//    `epoch_` under `start_mutex_` and broadcasts `start_cv_`. The mutex
//    acquisition that each worker performs to observe the new epoch is
//    what makes every preceding plain write (inputs, schedules) visible
//    to it.
//  * Each worker runs its assigned tasks, then increments
//    `workers_done_` under `done_mutex_` and signals `done_cv_`. The
//    supervisor waits for all workers, which conversely publishes every
//    worker-side plain write (per-task results, measured task times)
//    back to the supervisor.
//  * The only intra-epoch shared state is the atomic `abort_` flag.
//
// Scheduling: each worker drains its static assignment from the current
// (semi-dynamic LPT) schedule — the paper's §3.2.3 behavior. Measured
// per-task times are recorded per task, so the semi-dynamic LPT
// scheduler rebuilds the assignment from them between calls.
//
// Determinism: every task writes its outputs into a private per-task
// region of `task_results_`, each worker accumulating through its own
// scratch buffer; the supervisor then sums contributions in task-id
// order. Results are therefore bit-for-bit identical across worker
// counts, and equal to a single-threaded reference that accumulates
// tasks in id order.
//
// The full state vector is sent to every worker — the paper does the
// same "because of the dynamic scheduling strategy" (§3.2.3).
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "omx/exec/rhs_kernel.hpp"
#include "omx/obs/registry.hpp"
#include "omx/runtime/interconnect.hpp"
#include "omx/sched/lpt.hpp"
#include "omx/support/diagnostics.hpp"

namespace omx::runtime {

class WorkerPool {
 public:
  struct Options {
    std::size_t num_workers = 1;
    Interconnect net = Interconnect::ideal();
    /// Re-runs each task's body this many times, emulating the 1995
    /// compute/communication ratio (modern hardware is far faster
    /// relative to the simulated link than the PowerPC 601 was relative
    /// to its real link).
    std::size_t compute_scale = 1;
  };

  /// `kernel` must have a task decomposition (throws omx::Error if not:
  /// of the built-in backends only Backend::kInterp has one), at least
  /// num_workers concurrency lanes, and must outlive the pool.
  WorkerPool(const exec::RhsKernel& kernel, const Options& opts);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }
  const exec::RhsKernel& kernel() const { return *kernel_; }

  /// Replaces the task assignment. `schedule.size()` must equal
  /// num_workers(); task indices refer to kernel().tasks(). Must not be
  /// called while an eval() is in flight.
  void set_schedule(const sched::Schedule& schedule);

  /// One parallel RHS evaluation. If a worker throws while executing a
  /// task, the epoch is aborted, every worker parks, and the first
  /// exception is re-thrown here on the supervisor; the pool stays
  /// usable (and destructible) afterwards.
  void eval(double t, std::span<const double> y, std::span<double> ydot);

  /// Measured seconds per task (indexed by task id) from the most recent
  /// eval(). Contract: only valid after at least one eval() has returned
  /// (asserted); the storage is zero-initialized, so a task that has never
  /// run (e.g. one absent from the current schedule) reads as 0.0 rather
  /// than garbage. The span aliases internal storage — it is invalidated
  /// by destruction and overwritten by the next eval().
  std::span<const double> last_task_seconds() const {
    OMX_REQUIRE(evals_completed_ > 0,
                "last_task_seconds() called before the first eval()");
    return task_seconds_;
  }

  MessageStats& stats() { return stats_; }

 private:
  struct WorkerState {
    std::thread thread;
    /// Static assignment for the current schedule (LPT order).
    std::vector<std::uint32_t> tasks;
    /// Per-worker accumulation buffer: run_task() adds into these n_out
    /// slots, which are then copied into the task's private result
    /// region — no two workers ever write the same ydot slot.
    std::vector<double> task_out;
    std::size_t result_bytes = 0;  // response message size
  };

  void init();
  void worker_main(WorkerState& w, std::size_t index);
  /// One worker's share of one epoch; throws through to worker_main.
  void run_epoch(WorkerState& w, std::size_t index);
  void execute_task(WorkerState& w, std::size_t index, std::uint32_t task);

  const exec::RhsKernel* kernel_;
  Options opts_;
  MessageStats stats_;
  std::size_t state_bytes_ = 0;  // request message size (full broadcast)
  obs::Counter* rhs_calls_metric_ = nullptr;
  obs::Counter* tasks_run_metric_ = nullptr;
  obs::Histogram* task_seconds_metric_ = nullptr;

  std::vector<std::unique_ptr<WorkerState>> workers_;

  // Per-task result storage: task t owns the half-open range
  // [task_result_offset_[t], task_result_offset_[t + 1]) — one double per
  // out slot. Written by the worker assigned t, read by the
  // supervisor after the finish handshake.
  std::vector<double> task_results_;
  std::vector<std::size_t> task_result_offset_;
  std::vector<double> task_seconds_;
  std::size_t evals_completed_ = 0;
  std::uint64_t generation_ = 0;  // == epochs started; supervisor-only

  // Epoch inputs (plain writes published by the start handshake).
  double t_ = 0.0;
  std::vector<double> y_;

  // Start handshake.
  std::mutex start_mutex_;
  std::condition_variable start_cv_;
  std::uint64_t epoch_ = 0;  // guarded by start_mutex_
  bool shutdown_ = false;    // guarded by start_mutex_

  // Finish handshake.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::size_t workers_done_ = 0;     // guarded by done_mutex_
  std::exception_ptr first_error_;   // guarded by done_mutex_

  // Intra-epoch abort flag.
  std::atomic<bool> abort_{false};
};

}  // namespace omx::runtime
