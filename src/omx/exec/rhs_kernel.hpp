// RhsKernel: the uniform, backend-agnostic execution interface for a
// generated RHS function.
//
// A kernel is a vtable-free view — two raw function pointers plus a
// context pointer — with a non-allocating call operator, so the ODE
// solvers and the runtime::WorkerPool dispatch through exactly one
// indirect call regardless of whether the body is the tape interpreter,
// runtime-compiled native code, or the tree-walking reference evaluator.
//
// Three entry points:
//  * eval:       whole-system ydot = f(t, y)          (serial solvers)
//  * run_task:   accumulate one task's contributions  (worker pool)
//  * eval_batch: nb scenarios at once, SoA layout     (ensemble driver)
//
// Only the interpreter has run_task. The native backend compiles one
// model form, rhs_batch: its eval is eval_batch at width 1 (at nb=1 the
// SoA layout is the plain state vector), and like the reference
// evaluator it has no task decomposition (has_tasks() is false,
// num_tasks() is 0).
//
// The batched entry point uses structure-of-arrays layout: state i of
// scenario j lives at y_soa[i * nb + j], output slot s of scenario j at
// ydot_soa[s * nb + j], and each scenario has its own time t[j] (the
// ensemble driver steps scenarios with independent adaptive step
// control, so batch-mates sit at different times). Lane j's results must
// be bitwise identical to a scalar eval of (t[j], y[:, j]) — backends
// may vectorize across lanes but must not reassociate within a lane —
// so batch packing never changes a scenario's trajectory. `lane` has the
// same meaning as for run_task: it selects a private batch workspace,
// calls on distinct lanes are thread-safe.
//
// run_task has *accumulate* semantics — ydot must be pre-zeroed once per
// RHS evaluation, and composing run_task over every task id reproduces
// eval (partial-sum splitting of large equations adds into shared slots,
// §3.2). `lane` selects one of the kernel's pre-built concurrency lanes
// (the interpreter's private register files). Calls on distinct lanes
// are thread-safe; eval and same-lane calls are not. The task <-> lane
// pairing is the caller's choice and may change call to call — the
// pool's semi-dynamic LPT schedule moves tasks between workers (lanes)
// when it is rebuilt — so backends must not key any per-task state off
// the lane index.
//
// Ownership: RhsKernel is a non-owning view. KernelInstance owns the
// backend state (workspaces, dlopen handle) and guarantees a stable
// address for the view, so ode::RhsFn can bind `instance.kernel()`
// directly. Interp/reference kernels also require the source
// Program/FlatSystem to outlive the instance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "omx/exec/backend.hpp"
#include "omx/support/diagnostics.hpp"

namespace omx::model {
class FlatSystem;
}
namespace omx::vm {
struct Program;
}

namespace omx::exec {

/// Scheduling-relevant task metadata, decoupled from any backend's
/// executable representation (the worker pool and the LPT scheduler work
/// from this table, not from vm::Program).
struct TaskMeta {
  /// Output slots this task accumulates into (sorted, unique).
  std::vector<std::uint32_t> out_slots;
  /// State indices this task reads (communication analysis, §3.2.3).
  std::vector<std::uint32_t> in_states;
  /// Static cost estimate (tape instruction count).
  double est_cost = 0.0;
  std::string label;
};

struct TaskTable {
  std::vector<TaskMeta> tasks;

  std::size_t size() const { return tasks.size(); }
};

class RhsKernel {
 public:
  using EvalFn = void (*)(void* ctx, double t, const double* y,
                          double* ydot);
  using TaskFn = void (*)(void* ctx, std::size_t lane, std::uint32_t task,
                          double t, const double* y, double* ydot);
  using BatchEvalFn = void (*)(void* ctx, std::size_t lane, std::size_t nb,
                               const double* t, const double* y_soa,
                               double* ydot_soa);

  RhsKernel() = default;
  RhsKernel(Backend backend, void* ctx, EvalFn eval, TaskFn task,
            std::uint32_t n_state, std::uint32_t n_out,
            std::size_t num_lanes, const TaskTable* tasks,
            BatchEvalFn batch_eval = nullptr)
      : backend_(backend),
        ctx_(ctx),
        eval_(eval),
        task_(task),
        batch_eval_(batch_eval),
        n_state_(n_state),
        n_out_(n_out),
        num_lanes_(num_lanes),
        tasks_(tasks) {}

  Backend backend() const { return backend_; }
  std::uint32_t n_state() const { return n_state_; }
  /// Output slots; n_state for an RHS kernel, n^2 for a Jacobian kernel.
  std::uint32_t n_out() const { return n_out_; }
  /// Concurrency lanes usable with run_task.
  std::size_t num_lanes() const { return num_lanes_; }

  bool has_tasks() const { return task_ != nullptr && tasks_ != nullptr; }
  std::size_t num_tasks() const { return tasks_ ? tasks_->size() : 0; }
  const TaskTable& tasks() const {
    OMX_REQUIRE(tasks_ != nullptr, "kernel has no task decomposition");
    return *tasks_;
  }

  explicit operator bool() const { return eval_ != nullptr; }

  /// Whole-system evaluation: ydot = f(t, y), every slot written.
  void operator()(double t, std::span<const double> y,
                  std::span<double> ydot) const {
    eval_(ctx_, t, y.data(), ydot.data());
  }

  /// Accumulates one task's contributions: ydot[slot] += ... for each of
  /// tasks()[task].out_slots. ydot must be zeroed once per evaluation.
  void run_task(std::size_t lane, std::uint32_t task, double t,
                const double* y, double* ydot) const {
    task_(ctx_, lane, task, t, y, ydot);
  }

  bool has_batch() const { return batch_eval_ != nullptr; }

  /// Batched whole-system evaluation over `nb` scenarios (SoA layout, see
  /// file comment): ydot_soa[:, j] = f(t[j], y_soa[:, j]) for every lane
  /// j, every output row written. `lane` selects a private workspace;
  /// calls on distinct lanes are thread-safe.
  void eval_batch(std::size_t lane, std::size_t nb, const double* t,
                  const double* y_soa, double* ydot_soa) const {
    batch_eval_(ctx_, lane, nb, t, y_soa, ydot_soa);
  }

 private:
  Backend backend_ = Backend::kReference;
  void* ctx_ = nullptr;
  EvalFn eval_ = nullptr;
  TaskFn task_ = nullptr;
  BatchEvalFn batch_eval_ = nullptr;
  std::uint32_t n_state_ = 0;
  std::uint32_t n_out_ = 0;
  std::size_t num_lanes_ = 1;
  const TaskTable* tasks_ = nullptr;
};

/// Owns a kernel's backend state. Copyable (copies share the state);
/// the view returned by kernel() has a stable address for the lifetime
/// of every copy, so it can be bound into ode::RhsFn.
class KernelInstance {
 public:
  KernelInstance() = default;
  KernelInstance(std::shared_ptr<RhsKernel> view,
                 std::shared_ptr<void> state)
      : view_(std::move(view)), state_(std::move(state)) {}

  const RhsKernel& kernel() const {
    OMX_REQUIRE(view_ != nullptr, "empty kernel instance");
    return *view_;
  }
  Backend backend() const { return kernel().backend(); }
  explicit operator bool() const { return view_ != nullptr; }

 private:
  std::shared_ptr<RhsKernel> view_;
  std::shared_ptr<void> state_;  // referenced by view_->ctx
};

struct InterpKernelOptions {
  /// Concurrency lanes (private register files) for run_task.
  std::size_t lanes = 1;
};

/// Kernel over compiled tapes: run_task interprets `parallel`'s tasks;
/// eval uses `serial` when given (globally CSE'd tape), otherwise runs
/// the parallel tasks in order. Both programs must outlive the instance.
KernelInstance make_interp_kernel(const vm::Program& parallel,
                                  const vm::Program* serial,
                                  const InterpKernelOptions& opts = {});

/// Tree-walking reference kernel (eval only, no task decomposition).
/// `flat` must outlive the instance.
KernelInstance make_reference_kernel(const model::FlatSystem& flat);

}  // namespace omx::exec
